/**
 * @file
 * First-class register-file compression codec interface. Everything
 * the rest of the system wants from a compression scheme sits behind
 * gs::compress::Codec:
 *
 *   - access costs     readCost()/writeCost()/regStoredBytes() price a
 *                      register access in SRAM-array activations,
 *                      metadata-array accesses and crossbar bytes
 *                      (array_model.hpp units), from the RegMeta the
 *                      simulator tracks per register
 *   - capabilities     caps() tells the SIMT dispatcher which scalar-
 *                      execution tiers the scheme can serve and how
 *                      much pipeline depth it adds; activeSimd() folds
 *                      the GS_SIMD dispatch seam into the same query
 *   - power/area hooks energyScale()/areaScale() scale the calibrated
 *                      byte-mask constants of power/{energy_model,
 *                      hardware_cost} (the byte-mask codec returns 1.0
 *                      everywhere, keeping default-codec power output
 *                      bit-identical)
 *   - software codec   encode()/decode() produce and parse a
 *                      self-describing compressed blob (format below),
 *                      used by conformance tests and the micro bench
 *
 * Codecs register by CodecId in a string-keyed registry mirroring the
 * experiment registry (harness/experiments.hpp): codecFor() resolves
 * an id, findCodec() a --codec spelling, allCodecs() enumerates in
 * stable id order. To add a codec: add its CodecId + name to
 * common/codec_id.*, implement the interface (usually by delegating to
 * the array-model helpers), and add one line to the registry table in
 * codec_registry.cpp — the conformance suite (test_codec_registry.cpp)
 * and `gscalar bench --only=shootout` pick it up automatically.
 *
 * Blob format of encode()/decode() (all codecs):
 *
 *   [0]    CodecId of the producer
 *   [1]    lane count (1..kMaxWarpSize)
 *   [2]    codec-specific encoding byte (byte-mask: common-MSB count;
 *          BDI: BdiMode)
 *   [3..6] FNV-1a-32 of the payload, little endian
 *   [7..]  payload (codec-specific stored bytes)
 *
 * decode() validates every field and the checksum before touching the
 * payload: truncated, bit-flipped or wrong-codec blobs return an error
 * string, never undefined behaviour.
 */

#ifndef GSCALAR_COMPRESS_CODEC_HPP
#define GSCALAR_COMPRESS_CODEC_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "array_model.hpp"
#include "common/codec_id.hpp"
#include "common/types.hpp"
#include "reg_meta.hpp"
#include "simd.hpp"

namespace gs
{
namespace compress
{

/**
 * What the SIMT dispatcher may ask of a codec. Scalar execution (§4)
 * piggybacks on the compression metadata, so each tier is only
 * available when the scheme actually exposes the state it needs.
 */
struct CodecCaps
{
    /** Full-warp scalar tier: metadata reveals an all-lanes-equal
     *  register (§4.1). */
    bool fullScalar = false;
    /** Half-register tier: per-check-group encodings exist (§4.3). */
    bool halfScalar = false;
    /** Divergent tier: the writing mask is recoverable from the
     *  metadata array (§4.2). */
    bool divergentScalar = false;
    /** Scalar accesses can be served by the metadata (BVR) array
     *  alone, without touching the data arrays (§4.1). */
    bool scalarFromMeta = false;
    /** Partial writes to compressed registers need the special
     *  decompress-in-place move (§3.3). */
    bool insertsSpecialMoves = false;
    /** Spare capacity of compressed registers can absorb stuck SRAM
     *  arrays (RRCD, arxiv 2105.03859). */
    bool absorbsStuckFaults = false;
    /** Pipeline cycles the (de)compression stages add (§4.4). */
    unsigned extraFrontCycles = 0;
    /** The software model's inner loops honor GS_SIMD dispatch. */
    bool simdDispatch = false;
};

/**
 * Dimensionless scale factors over the calibrated byte-mask energy
 * constants of EnergyParams. The byte-mask codec is 1.0 everywhere,
 * which keeps the default power report bit-identical (x * 1.0 == x in
 * IEEE arithmetic).
 */
struct CodecEnergyScale
{
    double compressor = 1.0;   ///< x eCompressorUsePj
    double decompressor = 1.0; ///< x eDecompressorUsePj
    double metadata = 1.0;     ///< x eBvrAccessPj
    double staticPower = 1.0;  ///< x codecStaticPerSmW
};

/** Scale factors over the Table 3 block costs (hardware_cost.hpp). */
struct CodecAreaScale
{
    double compressor = 1.0;   ///< x compressorCost()
    double decompressor = 1.0; ///< x decompressorCost()
    double rfOverhead = 1.0;   ///< x the BVR/EBR RF area overhead
};

/** Abstract register-file compression codec. */
class Codec
{
  public:
    virtual ~Codec() = default;

    virtual CodecId id() const = 0;
    const char *name() const { return codecIdName(id()); }

    virtual CodecCaps caps() const = 0;
    virtual CodecEnergyScale energyScale() const = 0;
    virtual CodecAreaScale areaScale() const = 0;

    /**
     * The SIMD level this codec's inner loops dispatch to: the
     * process-wide GS_SIMD level for codecs whose kernels have SWAR/
     * AVX2 paths, Off otherwise. This folds GS_SIMD into the
     * capability query so --codec and GS_SIMD compose in one seam.
     */
    SimdLevel activeSimd() const
    {
        return caps().simdDispatch ? activeSimdLevel() : SimdLevel::Off;
    }

    /** The whole register holds one scalar value per this codec. */
    virtual bool regScalar(const RegMeta &meta) const = 0;

    /** The register is stored compressed (special-move relevance). */
    virtual bool regCompressed(const RegMeta &meta) const = 0;

    /**
     * Post-write metadata hook: carry codec-private state (e.g. the
     * static-profile frozen encoding) from the previous metadata of
     * the register into the freshly analyzed one. Default: nothing.
     */
    virtual void
    updateMeta(const RegMeta &before, RegMeta &after) const
    {
        (void)before;
        (void)after;
    }

    /**
     * Cost of reading a register stored by this codec.
     * @p scalar_from_meta marks a scalar read served from the metadata
     * array (only when caps().scalarFromMeta).
     */
    virtual AccessCost readCost(const RfGeometry &geo, const RegMeta &meta,
                                LaneMask reader, bool half_reg,
                                bool scalar_from_meta) const = 0;

    /** Cost of writing a register through this codec. */
    virtual AccessCost writeCost(const RfGeometry &geo, const RegMeta &meta,
                                 bool half_reg,
                                 bool scalar_to_meta) const = 0;

    /** Stored bytes of the register (compression-ratio accounting). */
    virtual unsigned regStoredBytes(const RfGeometry &geo,
                                    const RegMeta &meta,
                                    bool half_reg) const = 0;

    /** Per-register metadata bits the scheme adds to the RF. */
    virtual unsigned metadataBitsPerReg(const RfGeometry &geo,
                                        bool half_reg) const = 0;

    /** Software compressor: self-describing blob (format above). */
    virtual std::vector<std::uint8_t>
    encode(std::span<const Word> values) const = 0;

    /**
     * Software decompressor: inverse of encode(). Empty optional (and
     * a one-line reason) on any malformed input — wrong codec,
     * truncated blob, corrupt payload, inconsistent sizes.
     */
    virtual std::optional<std::vector<Word>>
    decode(std::span<const std::uint8_t> blob,
           std::string *error = nullptr) const = 0;
};

/** The registered codec for @p id (every CodecId is registered). */
const Codec &codecFor(CodecId id);

/** Resolve a --codec/GS_CODEC spelling; nullptr on unknown names. */
const Codec *findCodec(std::string_view name);

/** Every registered codec, in stable CodecId order. */
const std::vector<const Codec *> &allCodecs();

} // namespace compress
} // namespace gs

#endif // GSCALAR_COMPRESS_CODEC_HPP
