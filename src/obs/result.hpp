/**
 * @file
 * Structured result model of the observability layer. Every experiment
 * driver produces a SuiteResult — the rendered ASCII table (golden,
 * byte-identical to docs/bench_reference_output.txt), the structured
 * table cells behind it, and the underlying per-run counters — and
 * hands it to a pluggable ResultSink. Three sinks ship: human text,
 * JSON (one document per experiment, stable key order) and CSV,
 * selected by --format= on `gscalar bench`.
 */

#ifndef GSCALAR_OBS_RESULT_HPP
#define GSCALAR_OBS_RESULT_HPP

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness/runner.hpp"

namespace gs
{

/** Output format of a result stream. */
enum class ResultFormat
{
    Text, ///< rendered ASCII tables (the golden bench output)
    Json, ///< one JSON document per experiment, stable key order
    Csv,  ///< per-run counter rows (one header per experiment)
};

/** Parse a --format= value; empty optional on unknown names. */
std::optional<ResultFormat> parseResultFormat(const std::string &s);

/** Canonical name of a format ("text", "json", "csv"). */
const char *resultFormatName(ResultFormat f);

/** One experiment's complete output. */
struct SuiteResult
{
    std::string experiment; ///< registry name (e.g. "fig8")
    std::string tag;        ///< paper artefact tag (e.g. "Fig. 8")
    std::string title;      ///< table title
    std::vector<std::string> columns;           ///< header cells
    std::vector<std::vector<std::string>> rows; ///< body cells
    std::vector<RunResult> runs; ///< simulations behind the table
    std::string text;            ///< rendered ASCII table
};

/**
 * Build a SuiteResult from a rendered Table plus the runs behind it;
 * text/columns/rows are captured so every emitter agrees with the
 * golden rendering.
 */
SuiteResult makeSuiteResult(std::string experiment, std::string tag,
                            const Table &t,
                            std::vector<RunResult> runs = {});

/** Consumer of experiment results. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;
    virtual void emit(const SuiteResult &r) = 0;
};

/** Human text: r.text followed by a blank separator line. */
class TextSink : public ResultSink
{
  public:
    explicit TextSink(std::ostream &os) : os_(os) {}
    void emit(const SuiteResult &r) override;

  private:
    std::ostream &os_;
};

/** One JSON document per emit(), keys in a fixed documented order. */
class JsonSink : public ResultSink
{
  public:
    explicit JsonSink(std::ostream &os) : os_(os) {}
    void emit(const SuiteResult &r) override;

  private:
    std::ostream &os_;
};

/** Per-run counter rows as CSV, one commented header per experiment. */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &os) : os_(os) {}
    void emit(const SuiteResult &r) override;

  private:
    std::ostream &os_;
};

/** Sink for @p f writing to @p os. */
std::unique_ptr<ResultSink> makeResultSink(ResultFormat f,
                                           std::ostream &os);

// ---- low-level export helpers (harness/report.hpp delegates here) ----

/** JSON string escaping (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** CSV header: workload, mode, every counter, derived, power metric. */
std::string runCsvHeader();

/** One CSV row matching runCsvHeader(). */
std::string runCsvRow(const RunResult &r);

/**
 * One run as a flat JSON object (registry order: counters, derived
 * metrics, power components, throughput).
 */
std::string runResultJson(const RunResult &r);

} // namespace gs

#endif // GSCALAR_OBS_RESULT_HPP
