/**
 * @file
 * A dependency-free streaming JSON writer.
 *
 * The observability layer serializes stats registries, trace events
 * and bench artifacts without pulling in an external JSON library:
 * JsonWriter emits syntactically valid JSON through a push interface
 * (beginObject/key/value/endObject), handling commas, string escaping
 * and non-finite doubles itself.  Misuse (a value where a key is
 * required, unbalanced end calls) panics — serialization bugs should
 * fail loudly in tests, not produce corrupt artifacts.
 */

#ifndef AIECC_OBS_JSON_HH
#define AIECC_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aiecc
{
namespace obs
{

/**
 * Streaming JSON document builder.
 *
 * Usage:
 * @code
 *   JsonWriter w;
 *   w.beginObject().key("trials").value(100).key("by").beginArray()
 *    .value("eCAP").endArray().endObject();
 *   w.writeFile("out.json");
 * @endcode
 */
class JsonWriter
{
  public:
    /** @param indent Spaces per nesting level (0 = compact). */
    explicit JsonWriter(int indent = 2) : indentWidth(indent) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Name the next member of the enclosing object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text) { return value(std::string_view(text)); }
    JsonWriter &value(const std::string &text) { return value(std::string_view(text)); }
    JsonWriter &value(double number);
    JsonWriter &value(uint64_t number);
    JsonWriter &value(int64_t number);
    JsonWriter &value(int number) { return value(static_cast<int64_t>(number)); }
    JsonWriter &value(unsigned number) { return value(static_cast<uint64_t>(number)); }
    JsonWriter &value(bool flag);
    JsonWriter &null();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** True once every begin has been matched by an end. */
    bool complete() const { return started && stack.empty(); }

    /** The document so far (panics unless complete()). */
    const std::string &str() const;

    /**
     * Start a new document, keeping the buffers' capacity: a writer
     * reused per record allocates nothing once warmed up.
     */
    void clear();

    /** Pre-size the buffers for @p bytes of output and @p depth levels. */
    void reserve(size_t bytes, size_t depth);

    /**
     * Write the document (plus a trailing newline) to @p path.
     * @return false if the file could not be written.
     */
    bool writeFile(const std::string &path) const;

    /** JSON-escape @p text (quotes not included). */
    static std::string escape(std::string_view text);

    /**
     * Re-arm the once-per-process warning emitted when a non-finite
     * double is written (and serialized as null).  Test hook only —
     * lets regression tests observe the warning regardless of the
     * order they run in.
     */
    static void resetNonFiniteWarning();

  private:
    enum class Scope { Object, Array };
    struct Level
    {
        Scope scope;
        size_t members = 0;
    };

    int indentWidth;
    std::string out;
    std::vector<Level> stack;
    bool keyPending = false; ///< key() emitted, value must follow
    bool started = false;

    /** Comma/indent bookkeeping before a value or key is emitted. */
    void beforeValue();
    void newline();
    /** Append @p text to the document, JSON-escaped. */
    void appendEscaped(std::string_view text);
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_JSON_HH
