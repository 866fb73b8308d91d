#include "result.hpp"

#include <cstdio>
#include <sstream>

#include "common/arch_mode.hpp"
#include "metrics.hpp"

namespace gs
{

std::optional<ResultFormat>
parseResultFormat(const std::string &s)
{
    if (s == "text")
        return ResultFormat::Text;
    if (s == "json")
        return ResultFormat::Json;
    if (s == "csv")
        return ResultFormat::Csv;
    return std::nullopt;
}

const char *
resultFormatName(ResultFormat f)
{
    switch (f) {
      case ResultFormat::Text: return "text";
      case ResultFormat::Json: return "json";
      case ResultFormat::Csv: return "csv";
    }
    return "?";
}

SuiteResult
makeSuiteResult(std::string experiment, std::string tag, const Table &t,
                std::vector<RunResult> runs)
{
    SuiteResult r;
    r.experiment = std::move(experiment);
    r.tag = std::move(tag);
    r.title = t.title();
    r.text = t.str();
    const auto &rows = t.rows();
    if (!rows.empty()) {
        r.columns = rows.front();
        r.rows.assign(rows.begin() + 1, rows.end());
    }
    r.runs = std::move(runs);
    return r;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/** Counter value as JSON: integers stay integral, doubles stream. */
void
appendMetricValue(std::ostream &os, const MetricDef &m,
                  const EventCounts &ev)
{
    if (m.isFloat())
        os << m.value(ev);
    else
        os << ev.*(m.u64);
}

void
appendStringArray(std::ostream &os, const std::vector<std::string> &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(v[i]) << "\"";
    os << "]";
}

/** Nested run object of the suite document (2-level indent). */
void
appendRunObject(std::ostream &os, const RunResult &r,
                const std::string &pad)
{
    os << pad << "{\n";
    os << pad << "  \"workload\": \"" << jsonEscape(r.workload)
       << "\",\n";
    os << pad << "  \"mode\": \"" << archModeName(r.mode) << "\",\n";
    os << pad << "  \"wall_seconds\": " << r.wallSeconds << ",\n";
    os << pad << "  \"counters\": {";
    bool first = true;
    for (const MetricDef &m : eventMetrics()) {
        os << (first ? "" : ",") << "\n" << pad << "    \"" << m.name
           << "\": ";
        appendMetricValue(os, m, r.ev);
        first = false;
    }
    os << "\n" << pad << "  },\n";
    os << pad << "  \"derived\": {";
    first = true;
    for (const DerivedMetricDef &m : derivedEventMetrics()) {
        os << (first ? "" : ",") << "\n" << pad << "    \"" << m.name
           << "\": " << m.value(r.ev);
        first = false;
    }
    os << "\n" << pad << "  },\n";
    os << pad << "  \"power\": {";
    first = true;
    for (const PowerMetricDef &m : powerMetrics()) {
        os << (first ? "" : ",") << "\n" << pad << "    \"" << m.name
           << "\": " << m.value(r.power);
        first = false;
    }
    os << "\n" << pad << "  }\n";
    os << pad << "}";
}

} // namespace

void
TextSink::emit(const SuiteResult &r)
{
    // Byte-identical to the historical driver output: the rendered
    // table followed by one blank separator line.
    os_ << r.text << "\n";
}

void
JsonSink::emit(const SuiteResult &r)
{
    os_ << "{\n";
    os_ << "  \"schema\": \"gscalar.bench.v1\",\n";
    os_ << "  \"experiment\": \"" << jsonEscape(r.experiment) << "\",\n";
    os_ << "  \"tag\": \"" << jsonEscape(r.tag) << "\",\n";
    os_ << "  \"title\": \"" << jsonEscape(r.title) << "\",\n";
    if (!r.host.empty()) {
        os_ << "  \"host\": {";
        for (std::size_t i = 0; i < r.host.size(); ++i)
            os_ << (i ? ", " : "") << '"' << jsonEscape(r.host[i].first)
                << "\": \"" << jsonEscape(r.host[i].second) << '"';
        os_ << "},\n";
    }
    os_ << "  \"columns\": ";
    appendStringArray(os_, r.columns);
    os_ << ",\n";
    os_ << "  \"rows\": [";
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
        os_ << (i ? "," : "") << "\n    ";
        appendStringArray(os_, r.rows[i]);
    }
    os_ << (r.rows.empty() ? "" : "\n  ") << "],\n";
    os_ << "  \"runs\": [";
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
        os_ << (i ? "," : "") << "\n";
        appendRunObject(os_, r.runs[i], "    ");
    }
    os_ << (r.runs.empty() ? "" : "\n  ") << "]\n";
    os_ << "}\n";
}

void
CsvSink::emit(const SuiteResult &r)
{
    os_ << "# " << r.experiment << " (" << r.tag << "): " << r.title
        << "\n";
    os_ << runCsvHeader() << "\n";
    for (const RunResult &run : r.runs)
        os_ << runCsvRow(run) << "\n";
}

std::unique_ptr<ResultSink>
makeResultSink(ResultFormat f, std::ostream &os)
{
    switch (f) {
      case ResultFormat::Text: return std::make_unique<TextSink>(os);
      case ResultFormat::Json: return std::make_unique<JsonSink>(os);
      case ResultFormat::Csv: return std::make_unique<CsvSink>(os);
    }
    return nullptr;
}

std::string
runCsvHeader()
{
    std::ostringstream os;
    os << "workload,mode";
    for (const MetricDef &m : eventMetrics())
        os << "," << m.name;
    for (const DerivedMetricDef &m : derivedEventMetrics())
        os << "," << m.name;
    for (const PowerMetricDef &m : powerMetrics())
        os << "," << m.name;
    return os.str();
}

std::string
runCsvRow(const RunResult &r)
{
    std::ostringstream os;
    os << r.workload << "," << archModeName(r.mode);
    for (const MetricDef &m : eventMetrics()) {
        os << ",";
        appendMetricValue(os, m, r.ev);
    }
    for (const DerivedMetricDef &m : derivedEventMetrics())
        os << "," << m.value(r.ev);
    for (const PowerMetricDef &m : powerMetrics())
        os << "," << m.value(r.power);
    return os.str();
}

std::string
runResultJson(const RunResult &r)
{
    std::ostringstream os;
    os << "{\n  \"workload\": \"" << jsonEscape(r.workload)
       << "\",\n  \"mode\": \"" << archModeName(r.mode) << "\"";
    for (const MetricDef &m : eventMetrics()) {
        os << ",\n  \"" << m.name << "\": ";
        appendMetricValue(os, m, r.ev);
    }
    for (const DerivedMetricDef &m : derivedEventMetrics())
        os << ",\n  \"" << m.name << "\": " << m.value(r.ev);
    for (const PowerMetricDef &m : powerMetrics())
        os << ",\n  \"" << m.name << "\": " << m.value(r.power);
    os << ",\n  \"wall_seconds\": " << r.wallSeconds;
    os << ",\n  \"sim_cycles_per_sec\": " << r.simCyclesPerSec();
    os << ",\n  \"warp_insts_per_sec\": " << r.warpInstsPerSec();
    os << "\n}\n";
    return os.str();
}

} // namespace gs
