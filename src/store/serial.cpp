#include "serial.hpp"

#include <cstring>

#include "common/log.hpp"

namespace gs
{

namespace
{

// Wire types. The width is implied by the type; Str/Blob carry a u32
// length prefix.
constexpr std::uint8_t kWireBool = 1;
constexpr std::uint8_t kWireU32 = 2;
constexpr std::uint8_t kWireU64 = 3;
constexpr std::uint8_t kWireF64 = 4;
constexpr std::uint8_t kWireStr = 5;
constexpr std::uint8_t kWireBlob = 6;

constexpr std::size_t kHeaderBytes = 8;  // magic + version + kind + flags
constexpr std::size_t kTrailerBytes = 8; // FNV-1a checksum

} // namespace

// ------------------------------------------------------------- ByteWriter

ByteWriter::ByteWriter(BlobKind kind)
{
    u32(kSerialMagic);
    u16(kSerialVersion);
    u8(static_cast<std::uint8_t>(kind));
    u8(0); // flags, reserved
}

void
ByteWriter::u8(std::uint8_t v)
{
    buf_.push_back(v);
}

void
ByteWriter::u16(std::uint16_t v)
{
    u8(std::uint8_t(v));
    u8(std::uint8_t(v >> 8));
}

void
ByteWriter::u32(std::uint32_t v)
{
    u16(std::uint16_t(v));
    u16(std::uint16_t(v >> 16));
}

void
ByteWriter::u64(std::uint64_t v)
{
    u32(std::uint32_t(v));
    u32(std::uint32_t(v >> 32));
}

void
ByteWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::bytes(const void *p, std::size_t n)
{
    const std::uint8_t *b = static_cast<const std::uint8_t *>(p);
    buf_.insert(buf_.end(), b, b + n);
}

void
ByteWriter::field(std::uint16_t tag, bool v)
{
    u16(tag);
    u8(kWireBool);
    u8(v ? 1 : 0);
}

void
ByteWriter::field(std::uint16_t tag, std::uint32_t v)
{
    u16(tag);
    u8(kWireU32);
    u32(v);
}

void
ByteWriter::field(std::uint16_t tag, std::uint64_t v)
{
    u16(tag);
    u8(kWireU64);
    u64(v);
}

void
ByteWriter::field(std::uint16_t tag, double v)
{
    u16(tag);
    u8(kWireF64);
    f64(v);
}

void
ByteWriter::field(std::uint16_t tag, const std::string &v)
{
    u16(tag);
    u8(kWireStr);
    u32(std::uint32_t(v.size()));
    bytes(v.data(), v.size());
}

void
ByteWriter::fieldBlob(std::uint16_t tag, const std::vector<std::uint8_t> &v)
{
    u16(tag);
    u8(kWireBlob);
    u32(std::uint32_t(v.size()));
    bytes(v.data(), v.size());
}

std::vector<std::uint8_t>
ByteWriter::finish()
{
    GS_ASSERT(!finished_, "ByteWriter::finish() called twice");
    finished_ = true;
    u64(fnv1a(buf_.data(), buf_.size()));
    return std::move(buf_);
}

// ------------------------------------------------------------- ByteReader

ByteReader::ByteReader(const std::uint8_t *data, std::size_t size,
                       BlobKind expected_kind)
{
    ok_ = true;
    parseEnvelope(data, size, expected_kind);
}

void
ByteReader::fail(const std::string &why)
{
    if (ok_) {
        ok_ = false;
        error_ = why;
    }
}

void
ByteReader::parseEnvelope(const std::uint8_t *data, std::size_t size,
                          BlobKind expected_kind)
{
    auto rd_u16 = [&](std::size_t at) {
        return std::uint16_t(data[at] | (std::uint16_t(data[at + 1]) << 8));
    };
    auto rd_u32 = [&](std::size_t at) {
        return std::uint32_t(rd_u16(at)) |
               (std::uint32_t(rd_u16(at + 2)) << 16);
    };
    auto rd_u64 = [&](std::size_t at) {
        return std::uint64_t(rd_u32(at)) |
               (std::uint64_t(rd_u32(at + 4)) << 32);
    };

    if (data == nullptr || size < kHeaderBytes + kTrailerBytes)
        return fail("blob truncated: shorter than header + trailer");
    if (rd_u32(0) != kSerialMagic)
        return fail("bad magic: not a gscalar blob");
    if (rd_u16(4) != kSerialVersion)
        return fail("unsupported serial version " +
                    std::to_string(rd_u16(4)));
    if (data[6] != static_cast<std::uint8_t>(expected_kind))
        return fail("blob kind " + std::to_string(data[6]) +
                    " where kind " +
                    std::to_string(unsigned(expected_kind)) +
                    " was expected");
    if (data[7] != 0)
        return fail("nonzero reserved flags");

    const std::size_t body = size - kTrailerBytes;
    if (rd_u64(body) != fnv1a(data, body))
        return fail("checksum mismatch: blob corrupted");

    // Parse the tagged-field payload.
    std::size_t pos = kHeaderBytes;
    while (pos < body) {
        if (body - pos < 3)
            return fail("field header truncated");
        Field f{};
        f.tag = rd_u16(pos);
        f.wire = data[pos + 2];
        pos += 3;
        switch (f.wire) {
          case kWireBool:
            if (body - pos < 1)
                return fail("bool field truncated");
            f.bits = data[pos];
            if (f.bits > 1)
                return fail("bool field with value > 1");
            pos += 1;
            break;
          case kWireU32:
            if (body - pos < 4)
                return fail("u32 field truncated");
            f.bits = rd_u32(pos);
            pos += 4;
            break;
          case kWireU64:
          case kWireF64:
            if (body - pos < 8)
                return fail("u64/f64 field truncated");
            f.bits = rd_u64(pos);
            pos += 8;
            break;
          case kWireStr:
          case kWireBlob: {
            if (body - pos < 4)
                return fail("length prefix truncated");
            const std::uint32_t len = rd_u32(pos);
            pos += 4;
            if (body - pos < len)
                return fail("str/blob field truncated");
            f.ptr = data + pos;
            f.len = len;
            pos += len;
            break;
          }
          default:
            return fail("unknown wire type " + std::to_string(f.wire));
        }
        fields_.push_back(f);
    }
}

const ByteReader::Field *
ByteReader::find(std::uint16_t tag, std::uint8_t wire)
{
    if (!ok_)
        return nullptr;
    for (const Field &f : fields_) {
        if (f.tag != tag)
            continue;
        if (f.wire != wire) {
            fail("field tag " + std::to_string(tag) +
                 " has wire type " + std::to_string(f.wire) +
                 ", expected " + std::to_string(wire));
            return nullptr;
        }
        return &f;
    }
    return nullptr;
}

bool
ByteReader::get(std::uint16_t tag, bool &v)
{
    const Field *f = find(tag, kWireBool);
    if (!f)
        return false;
    v = f->bits != 0;
    return true;
}

bool
ByteReader::get(std::uint16_t tag, std::uint32_t &v)
{
    const Field *f = find(tag, kWireU32);
    if (!f)
        return false;
    v = std::uint32_t(f->bits);
    return true;
}

bool
ByteReader::get(std::uint16_t tag, std::uint64_t &v)
{
    const Field *f = find(tag, kWireU64);
    if (!f)
        return false;
    v = f->bits;
    return true;
}

bool
ByteReader::get(std::uint16_t tag, double &v)
{
    const Field *f = find(tag, kWireF64);
    if (!f)
        return false;
    std::memcpy(&v, &f->bits, sizeof(v));
    return true;
}

bool
ByteReader::get(std::uint16_t tag, std::string &v)
{
    const Field *f = find(tag, kWireStr);
    if (!f)
        return false;
    v.assign(reinterpret_cast<const char *>(f->ptr), f->len);
    return true;
}

bool
ByteReader::getBlob(std::uint16_t tag, const std::uint8_t *&p,
                    std::size_t &n)
{
    const Field *f = find(tag, kWireBlob);
    if (!f)
        return false;
    p = f->ptr;
    n = f->len;
    return true;
}

std::vector<ByteReader::BlobView>
ByteReader::getBlobs(std::uint16_t tag)
{
    std::vector<BlobView> out;
    if (!ok_)
        return out;
    for (const Field &f : fields_) {
        if (f.tag != tag)
            continue;
        if (f.wire != kWireBlob) {
            fail("field tag " + std::to_string(tag) +
                 " has wire type " + std::to_string(f.wire) +
                 ", expected " + std::to_string(kWireBlob));
            return {};
        }
        out.push_back({f.ptr, f.len});
    }
    return out;
}

// ------------------------------------------------------- field enumerations
//
// One visitor per struct lists (tag, field) pairs; serialization and
// deserialization share the list so they can never drift apart. Tags
// are append-only: renumbering breaks every existing cache file.

namespace
{

template <typename Cfg, typename V>
void
visitConfig(Cfg &c, V &&v)
{
    v(1, c.mode);
    v(2, c.numSms);
    v(3, c.warpSize);
    v(4, c.simtWidth);
    v(5, c.sfuWidth);
    v(6, c.numAluPipes);
    v(7, c.maxThreadsPerSm);
    v(8, c.maxCtasPerSm);
    v(9, c.numVregsPerSm);
    v(10, c.numBanks);
    v(11, c.arraysPerBank);
    v(12, c.numCollectors);
    v(13, c.numSchedulers);
    v(14, c.schedPolicy);
    v(15, c.checkGranularity);
    v(16, c.halfRegisterCompression);
    v(17, c.scalarRfBanks);
    v(18, c.insertSpecialMoves);
    v(19, c.compilerAssistedSmov);
    v(20, c.scalarShortensOccupancy);
    v(21, c.aluLatency);
    v(22, c.mulLatency);
    v(23, c.divLatency);
    v(24, c.sfuLatency);
    v(25, c.lineBytes);
    v(26, c.l1Bytes);
    v(27, c.l1Assoc);
    v(28, c.l1Latency);
    v(29, c.l1MshrEntries);
    v(30, c.l2Bytes);
    v(31, c.l2Assoc);
    v(32, c.l2Latency);
    v(33, c.dramLatency);
    v(34, c.memChannels);
    v(35, c.dramRequestsPerCycle);
    v(36, c.sharedLatency);
    v(37, c.sharedBanks);
    v(38, c.coreClockGhz);
    v(39, c.maxCycles);
    v(40, c.seed);
    v(41, c.codec);
}

template <typename Ev, typename V>
void
visitEvents(Ev &e, V &&v)
{
    v(1, e.cycles);
    v(2, e.warpInsts);
    v(3, e.threadInsts);
    v(4, e.issuedInsts);
    v(5, e.aluWarpInsts);
    v(6, e.sfuWarpInsts);
    v(7, e.memWarpInsts);
    v(8, e.ctrlWarpInsts);
    v(9, e.aluLaneOps);
    v(10, e.sfuLaneOps);
    v(11, e.memLaneOps);
    v(12, e.aluEnergyUnits);
    v(13, e.sfuEnergyUnits);
    v(14, e.divergentWarpInsts);
    v(15, e.divergentScalarEligible);
    v(16, e.scalarAluEligible);
    v(17, e.scalarSfuEligible);
    v(18, e.scalarMemEligible);
    v(19, e.halfScalarEligible);
    v(20, e.scalarExecuted);
    v(21, e.halfScalarExecuted);
    v(22, e.specialMoveInsts);
    v(23, e.staticScalarInsts);
    v(24, e.rfReads);
    v(25, e.rfWrites);
    v(26, e.rfArrayReads);
    v(27, e.rfArrayWrites);
    v(28, e.bvrAccesses);
    v(29, e.scalarRfAccesses);
    v(30, e.crossbarBytes);
    v(31, e.ocAllocations);
    v(32, e.rfAccScalar);
    v(33, e.rfAcc3Byte);
    v(34, e.rfAcc2Byte);
    v(35, e.rfAcc1Byte);
    v(36, e.rfAccDivergent);
    v(37, e.rfAccOther);
    v(38, e.compressorUses);
    v(39, e.decompressorUses);
    v(40, e.shadowBaseArrayReads);
    v(41, e.shadowBaseArrayWrites);
    v(42, e.shadowScalarArrayReads);
    v(43, e.shadowScalarArrayWrites);
    v(44, e.shadowScalarRfAccesses);
    v(45, e.shadowOursArrayReads);
    v(46, e.shadowOursArrayWrites);
    v(47, e.shadowOursBvrAccesses);
    v(48, e.shadowOursCrossbarBytes);
    v(49, e.bdiMetaAccesses);
    v(50, e.affineWrites);
    v(51, e.affineNonScalarWrites);
    v(52, e.compBytesUncompressed);
    v(53, e.compBytesCompressed);
    v(54, e.bdiBytesUncompressed);
    v(55, e.bdiBytesCompressed);
    v(56, e.bdiArrayReads);
    v(57, e.bdiArrayWrites);
    v(58, e.l1Accesses);
    v(59, e.l1Misses);
    v(60, e.l2Accesses);
    v(61, e.l2Misses);
    v(62, e.dramAccesses);
    v(63, e.sharedAccesses);
    v(64, e.sharedBankConflicts);
    v(65, e.memRequests);
    v(66, e.mshrStallCycles);
    v(67, e.schedIdleCycles);
    v(68, e.scoreboardStalls);
    v(69, e.ocFullStalls);
    v(70, e.scalarBankStalls);
    v(71, e.pipeBusyStalls);
}

template <typename P, typename V>
void
visitPower(P &p, V &&v)
{
    v(1, p.frontendW);
    v(2, p.executeW);
    v(3, p.sfuW);
    v(4, p.regFileW);
    v(5, p.codecW);
    v(6, p.memoryW);
    v(7, p.staticW);
    v(8, p.totalW);
    v(9, p.ipc);
    v(10, p.seconds);
}

/** Writes each visited field into a ByteWriter. */
struct FieldWriter
{
    ByteWriter &w;

    void operator()(std::uint16_t tag, const bool &v) { w.field(tag, v); }
    void operator()(std::uint16_t tag, const std::uint32_t &v)
    {
        w.field(tag, v);
    }
    void operator()(std::uint16_t tag, const std::uint64_t &v)
    {
        w.field(tag, v);
    }
    void operator()(std::uint16_t tag, const double &v) { w.field(tag, v); }
    void operator()(std::uint16_t tag, const ArchMode &v)
    {
        w.field(tag, static_cast<std::uint32_t>(v));
    }
    void operator()(std::uint16_t tag, const SchedPolicy &v)
    {
        w.field(tag, static_cast<std::uint32_t>(v));
    }
    void operator()(std::uint16_t tag, const CodecId &v)
    {
        w.field(tag, static_cast<std::uint32_t>(v));
    }
};

/** Pulls each visited field out of a ByteReader. */
struct FieldReader
{
    ByteReader &r;

    void operator()(std::uint16_t tag, bool &v) { r.get(tag, v); }
    void operator()(std::uint16_t tag, std::uint32_t &v) { r.get(tag, v); }
    void operator()(std::uint16_t tag, std::uint64_t &v) { r.get(tag, v); }
    void operator()(std::uint16_t tag, double &v) { r.get(tag, v); }
    void operator()(std::uint16_t tag, ArchMode &v)
    {
        std::uint32_t x;
        if (!r.get(tag, x))
            return;
        if (x > static_cast<std::uint32_t>(ArchMode::GScalarFull))
            r.fail("ArchMode value " + std::to_string(x) + " out of range");
        else
            v = static_cast<ArchMode>(x);
    }
    void operator()(std::uint16_t tag, SchedPolicy &v)
    {
        std::uint32_t x;
        if (!r.get(tag, x))
            return;
        if (x > static_cast<std::uint32_t>(SchedPolicy::GreedyThenOldest))
            r.fail("SchedPolicy value " + std::to_string(x) +
                   " out of range");
        else
            v = static_cast<SchedPolicy>(x);
    }
    void operator()(std::uint16_t tag, CodecId &v)
    {
        std::uint32_t x;
        if (!r.get(tag, x))
            return;
        if (x >= kNumCodecs)
            r.fail("CodecId value " + std::to_string(x) +
                   " out of range");
        else
            v = static_cast<CodecId>(x);
    }
};

std::vector<std::uint8_t>
serializeEvents(const EventCounts &ev)
{
    ByteWriter w(BlobKind::Events);
    visitEvents(ev, FieldWriter{w});
    return w.finish();
}

std::vector<std::uint8_t>
serializePower(const PowerReport &p)
{
    ByteWriter w(BlobKind::Power);
    visitPower(p, FieldWriter{w});
    return w.finish();
}

bool
deserializeEvents(const std::uint8_t *data, std::size_t size,
                  EventCounts &ev, std::string *error)
{
    ByteReader r(data, size, BlobKind::Events);
    EventCounts out;
    visitEvents(out, FieldReader{r});
    if (!r.ok()) {
        if (error)
            *error = "events: " + r.error();
        return false;
    }
    ev = out;
    return true;
}

bool
deserializePower(const std::uint8_t *data, std::size_t size, PowerReport &p,
                 std::string *error)
{
    ByteReader r(data, size, BlobKind::Power);
    PowerReport out;
    visitPower(out, FieldReader{r});
    if (!r.ok()) {
        if (error)
            *error = "power: " + r.error();
        return false;
    }
    p = out;
    return true;
}

// RunResult field tags.
constexpr std::uint16_t kResWorkload = 1;
constexpr std::uint16_t kResMode = 2;
constexpr std::uint16_t kResEvents = 3;
constexpr std::uint16_t kResPower = 4;
constexpr std::uint16_t kResWallSeconds = 5;

} // namespace

// ------------------------------------------------------------ public API

std::vector<std::uint8_t>
serializeConfig(const ArchConfig &cfg)
{
    ByteWriter w(BlobKind::Config);
    visitConfig(cfg, FieldWriter{w});
    return w.finish();
}

std::optional<ArchConfig>
deserializeConfig(const std::uint8_t *data, std::size_t size,
                  std::string *error)
{
    ByteReader r(data, size, BlobKind::Config);
    ArchConfig cfg;
    visitConfig(cfg, FieldReader{r});
    if (!r.ok()) {
        if (error)
            *error = r.error();
        return std::nullopt;
    }
    return cfg;
}

std::vector<std::uint8_t>
serializeResult(const RunResult &res)
{
    ByteWriter w(BlobKind::Result);
    w.field(kResWorkload, res.workload);
    w.field(kResMode, static_cast<std::uint32_t>(res.mode));
    w.fieldBlob(kResEvents, serializeEvents(res.ev));
    w.fieldBlob(kResPower, serializePower(res.power));
    w.field(kResWallSeconds, res.wallSeconds);
    return w.finish();
}

std::optional<RunResult>
deserializeResult(const std::uint8_t *data, std::size_t size,
                  std::string *error)
{
    ByteReader r(data, size, BlobKind::Result);
    RunResult res;
    r.get(kResWorkload, res.workload);
    FieldReader{r}(kResMode, res.mode);
    r.get(kResWallSeconds, res.wallSeconds);

    const std::uint8_t *p = nullptr;
    std::size_t n = 0;
    if (r.getBlob(kResEvents, p, n) &&
        !deserializeEvents(p, n, res.ev, error))
        return std::nullopt;
    if (r.getBlob(kResPower, p, n) &&
        !deserializePower(p, n, res.power, error))
        return std::nullopt;

    if (!r.ok()) {
        if (error)
            *error = r.error();
        return std::nullopt;
    }
    return res;
}

} // namespace gs
