/**
 * @file
 * A fixed-capacity text buffer for rendering short records without
 * touching the heap.
 *
 * Trace events render their label and detail text into one of these
 * only when a line is written (obs/trace.hh), and the DDR4 command and
 * address printers share it, so a toString() and a trace line are one
 * renderer.  Appends past the capacity are dropped and remembered, so
 * a caller can tell a complete rendering from a cut one.
 */

#ifndef AIECC_COMMON_TEXT_BUF_HH
#define AIECC_COMMON_TEXT_BUF_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace aiecc
{

class TextBuf
{
  public:
    static constexpr size_t capacity = 512;

    TextBuf &
    add(std::string_view text)
    {
        for (const char c : text)
            add(c);
        return *this;
    }

    TextBuf &
    add(char c)
    {
        if (len < capacity)
            buf[len++] = c;
        else
            cut = true;
        return *this;
    }

    /** Unsigned decimal. */
    TextBuf &
    dec(uint64_t value)
    {
        return digits(value, 10);
    }

    /** Lower-case hexadecimal, no prefix. */
    TextBuf &
    hex(uint64_t value)
    {
        return digits(value, 16);
    }

    std::string_view view() const { return {buf, len}; }
    std::string str() const { return std::string(view()); }
    bool empty() const { return len == 0; }
    /** True when an append did not fit. */
    bool truncated() const { return cut; }

  private:
    char buf[capacity];
    size_t len = 0;
    bool cut = false;

    TextBuf &
    digits(uint64_t value, unsigned base)
    {
        char tmp[20];
        size_t n = 0;
        do {
            const unsigned d = static_cast<unsigned>(value % base);
            tmp[n++] = static_cast<char>(d < 10 ? '0' + d : 'a' + d - 10);
            value /= base;
        } while (value);
        while (n)
            add(tmp[--n]);
        return *this;
    }
};

} // namespace aiecc

#endif // AIECC_COMMON_TEXT_BUF_HH
