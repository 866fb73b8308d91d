#include "report.hpp"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench
{

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = v < 0 ? -DBL_MAX : DBL_MAX;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", unsigned(c));
            out += esc;
        } else {
            out.push_back(c);
        }
    }
    return out + "\"";
}

void
JsonObject::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += jsonString(k) + ": ";
}

JsonObject &
JsonObject::num(const std::string &k, double v)
{
    key(k);
    body_ += jsonNumber(v);
    return *this;
}

JsonObject &
JsonObject::str(const std::string &k, const std::string &v)
{
    key(k);
    body_ += jsonString(v);
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
    return *this;
}

std::string
summaryJson(const Summary &s)
{
    JsonObject o;
    o.num("median", s.median);
    if (s.tailLevel) {
        o.num("p" + std::to_string(s.tailLevel), s.tail);
        o.num("p" + std::to_string(s.tailLevel) + "_up_mean", s.tailMean);
    }
    o.num("n", double(s.n));
    return o.text();
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = {value, unit};
}

void
Report::detail(const std::string &key, const std::string &json) const
{
    std::cout << "perfbench " << key << " " << json << std::endl;
}

void
Report::fail(const std::string &why, std::uint64_t n)
{
    failed_ += n;
    std::cerr << "perfbench: FAILED (" << n << "): " << why << "\n";
}

void
Report::expectCount(const std::string &name, std::uint64_t got,
                    std::uint64_t expected)
{
    if (got != expected)
        fail("determinism: " + name + " = " + std::to_string(got) +
             ", expected " + std::to_string(expected));
}

std::string
Report::resultLine() const
{
    JsonObject metrics;
    for (const auto &[name, v] : metrics_)
        metrics.raw(name, JsonObject()
                              .num("value", v.value)
                              .str("unit", v.unit)
                              .text());
    return JsonObject()
        .raw("correct", correct() ? "true" : "false")
        .num("attempted", double(attempted_))
        .num("failed", double(failed_))
        .raw("metrics", metrics.text())
        .text();
}

} // namespace perfbench
