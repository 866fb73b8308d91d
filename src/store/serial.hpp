/**
 * @file
 * Versioned binary serialization for simulation results. This is the
 * wire format shared by the on-disk run cache (run_cache.hpp) and the
 * gscalard request protocol (serve/protocol.hpp), so it is designed for
 * hostile inputs: every blob is framed by a magic/version/kind header
 * and an FNV-1a checksum trailer, every field carries an explicit tag
 * and wire type, and any truncation, bit flip or type mismatch makes
 * deserialization return failure instead of crashing or returning a
 * half-filled struct.
 *
 * Format of one blob:
 *
 *   u32  magic   "GSB1" (0x31425347 little-endian)
 *   u16  version kSerialVersion; readers reject other versions
 *   u8   kind    BlobKind of the payload
 *   u8   flags   reserved, must be zero
 *   ...  payload sequence of tagged fields
 *   u64  fnv     FNV-1a over everything before the trailer
 *
 * Each payload field is (tag u16, wire u8, value). Integers are fixed
 * width little-endian; strings and nested blobs are u32 length +
 * bytes. Unknown tags are skipped (so old readers tolerate appended
 * fields); missing tags keep the in-memory default. Tags are
 * append-only: never renumber or reuse one.
 */

#ifndef GSCALAR_STORE_SERIAL_HPP
#define GSCALAR_STORE_SERIAL_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/events.hpp"
#include "common/fnv.hpp"
#include "harness/runner.hpp"
#include "power/energy_model.hpp"

namespace gs
{

/** Blob payload types (the header's kind byte). */
enum class BlobKind : std::uint8_t
{
    Config = 1,     ///< one ArchConfig
    Result = 2,     ///< one RunResult (workload, mode, events, power)
    CacheEntry = 3, ///< disk-cache record: config blob + result blob
    Request = 4,    ///< gscalard run request
    Response = 5,   ///< gscalard run response
    Ping = 6,       ///< gscalard liveness probe (empty payload)
    Pong = 7,       ///< gscalard liveness reply (empty payload)
    Events = 8,        ///< nested EventCounts of a result
    Power = 9,         ///< nested PowerReport of a result
    StatsRequest = 10, ///< gscalard stats probe (empty payload)
    StatsResponse = 11, ///< gscalard daemon counters
    WorkloadStats = 12, ///< nested per-workload latency histogram
    GenSpec = 13,       ///< kernel-generator knob set (gen/spec.hpp)
    Kernel = 14,        ///< one serialized Kernel (gen/artifact.hpp)
    Reproducer = 15,    ///< fuzz miscompare artifact (spec + kernel)
};

/** Wire-format revision; bump when a field changes meaning. */
inline constexpr std::uint16_t kSerialVersion = 1;

/** Header magic: "GSB1". */
inline constexpr std::uint32_t kSerialMagic = 0x31425347u;

// ---- serialization -------------------------------------------------------

std::vector<std::uint8_t> serializeConfig(const ArchConfig &cfg);
std::vector<std::uint8_t> serializeResult(const RunResult &r);

// ---- deserialization -----------------------------------------------------
// On failure the optional is empty and *error (when given) holds a
// one-line reason. Failure never mutates partial state into the result.

std::optional<ArchConfig> deserializeConfig(const std::uint8_t *data,
                                            std::size_t size,
                                            std::string *error = nullptr);
std::optional<RunResult> deserializeResult(const std::uint8_t *data,
                                           std::size_t size,
                                           std::string *error = nullptr);

inline std::optional<ArchConfig>
deserializeConfig(const std::vector<std::uint8_t> &buf,
                  std::string *error = nullptr)
{
    return deserializeConfig(buf.data(), buf.size(), error);
}

inline std::optional<RunResult>
deserializeResult(const std::vector<std::uint8_t> &buf,
                  std::string *error = nullptr)
{
    return deserializeResult(buf.data(), buf.size(), error);
}

// ---- envelope + field primitives (shared with protocol.cpp) --------------

/** Accumulates one blob; finish() appends the checksum trailer. */
class ByteWriter
{
  public:
    explicit ByteWriter(BlobKind kind);

    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v);
    void bytes(const void *p, std::size_t n);

    // Tagged fields.
    void field(std::uint16_t tag, bool v);
    void field(std::uint16_t tag, std::uint32_t v);
    void field(std::uint16_t tag, std::uint64_t v);
    void field(std::uint16_t tag, double v);
    void field(std::uint16_t tag, const std::string &v);
    void fieldBlob(std::uint16_t tag, const std::vector<std::uint8_t> &v);

    /** Append the FNV trailer and return the finished blob. */
    std::vector<std::uint8_t> finish();

  private:
    std::vector<std::uint8_t> buf_;
    bool finished_ = false;
};

/**
 * Bounds-checked reader over one blob. Construction verifies magic,
 * version, kind and checksum; fields are then pulled by tag.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size,
               BlobKind expected_kind);

    /** False when the envelope or any field was malformed. */
    bool ok() const { return ok_; }
    /** First failure reason (empty while ok()). */
    const std::string &error() const { return error_; }

    // Field accessors: false when the tag is absent; fail() the whole
    // reader when present with the wrong wire type.
    bool get(std::uint16_t tag, bool &v);
    bool get(std::uint16_t tag, std::uint32_t &v);
    bool get(std::uint16_t tag, std::uint64_t &v);
    bool get(std::uint16_t tag, double &v);
    bool get(std::uint16_t tag, std::string &v);
    /** Nested blob: pointer/size view into this reader's buffer. */
    bool getBlob(std::uint16_t tag, const std::uint8_t *&p, std::size_t &n);

    /** A nested-blob view (for repeated fields). */
    struct BlobView
    {
        const std::uint8_t *ptr;
        std::size_t len;
    };

    /**
     * Every nested blob carrying @p tag, in wire order. Empty when the
     * tag is absent; fails the reader if the tag exists with a
     * non-blob wire type. Used for repeated fields such as the
     * daemon's per-workload stats.
     */
    std::vector<BlobView> getBlobs(std::uint16_t tag);

    /** Record a failure (used by callers for semantic errors too). */
    void fail(const std::string &why);

  private:
    struct Field
    {
        std::uint16_t tag;
        std::uint8_t wire;
        std::uint64_t bits;      ///< fixed-width value, zero-extended
        const std::uint8_t *ptr; ///< str/blob payload
        std::size_t len;
    };

    const Field *find(std::uint16_t tag, std::uint8_t wire);
    void parseEnvelope(const std::uint8_t *data, std::size_t size,
                       BlobKind expected_kind);

    std::vector<Field> fields_;
    bool ok_ = false;
    std::string error_;
};

} // namespace gs

#endif // GSCALAR_STORE_SERIAL_HPP
