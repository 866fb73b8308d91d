#include "experiments.hpp"

#include <array>
#include <future>
#include <map>
#include <sstream>

#include "common/table.hpp"
#include "power/hardware_cost.hpp"
#include "runner.hpp"

namespace gs
{

ArchConfig
experimentConfig()
{
    ArchConfig cfg; // defaults are the Table 1 GTX 480 model
    cfg.codec = defaultCodecId(); // --codec / $GS_CODEC selection
    return cfg;
}

namespace
{

double
pctDiv(double num, double den)
{
    return den > 0 ? num / den : 0;
}

SuiteResult
buildFig1(ExperimentEngine &eng, const ArchConfig &base)
{
    ArchConfig cfg = base;
    cfg.mode = ArchMode::Baseline; // classification is mode-independent

    Table t("Figure 1: divergent and divergent-scalar instructions");
    t.row({"bench", "divergent", "divergent-scalar"});
    double div_sum = 0, dsc_sum = 0;
    const auto results = eng.runSuite(cfg);
    for (const RunResult &r : results) {
        const double div =
            pctDiv(double(r.ev.divergentWarpInsts), double(r.ev.warpInsts));
        const double dsc = pctDiv(double(r.ev.divergentScalarEligible),
                                  double(r.ev.warpInsts));
        div_sum += div;
        dsc_sum += dsc;
        t.row({r.workload, Table::pct(div), Table::pct(dsc)});
    }
    const double n = double(results.size());
    t.row({"AVG", Table::pct(div_sum / n), Table::pct(dsc_sum / n)});
    t.row({"paper-AVG", "28.0%", "12.6% (45% of divergent)"});
    return makeSuiteResult("fig1", "Fig. 1", t, results);
}

SuiteResult
buildFig8(ExperimentEngine &eng, const ArchConfig &base)
{
    ArchConfig cfg = base;
    cfg.mode = ArchMode::Baseline;

    Table t("Figure 8: RF access distribution for operand values");
    t.row({"bench", "scalar", "3-byte", "2-byte", "1-byte", "divergent",
           "other"});
    double sums[6] = {};
    const auto results = eng.runSuite(cfg);
    for (const RunResult &r : results) {
        const double reads = double(r.ev.rfReads);
        const double vals[6] = {
            pctDiv(double(r.ev.rfAccScalar), reads),
            pctDiv(double(r.ev.rfAcc3Byte), reads),
            pctDiv(double(r.ev.rfAcc2Byte), reads),
            pctDiv(double(r.ev.rfAcc1Byte), reads),
            pctDiv(double(r.ev.rfAccDivergent), reads),
            pctDiv(double(r.ev.rfAccOther), reads)};
        for (int i = 0; i < 6; ++i)
            sums[i] += vals[i];
        t.row({r.workload, Table::pct(vals[0]), Table::pct(vals[1]),
               Table::pct(vals[2]), Table::pct(vals[3]),
               Table::pct(vals[4]), Table::pct(vals[5])});
    }
    const double n = double(results.size());
    t.row({"AVG", Table::pct(sums[0] / n), Table::pct(sums[1] / n),
           Table::pct(sums[2] / n), Table::pct(sums[3] / n),
           Table::pct(sums[4] / n), Table::pct(sums[5] / n)});
    t.row({"paper-AVG", "36%", "17%", "4%", "7%", "-", "-"});
    return makeSuiteResult("fig8", "Fig. 8", t, results);
}

SuiteResult
buildFig9(ExperimentEngine &eng, const ArchConfig &base)
{
    ArchConfig cfg = base;
    cfg.mode = ArchMode::Baseline;

    Table t("Figure 9: instructions eligible for scalar execution");
    t.row({"bench", "ALU-scalar", "+SFU", "+MEM", "+half", "+divergent",
           "total"});
    double sums[6] = {};
    const auto results = eng.runSuite(cfg);
    for (const RunResult &r : results) {
        const double wi = double(r.ev.warpInsts);
        const double alu = pctDiv(double(r.ev.scalarAluEligible), wi);
        const double sfu = pctDiv(double(r.ev.scalarSfuEligible), wi);
        const double mem = pctDiv(double(r.ev.scalarMemEligible), wi);
        const double half = pctDiv(double(r.ev.halfScalarEligible), wi);
        const double dsc =
            pctDiv(double(r.ev.divergentScalarEligible), wi);
        const double total = alu + sfu + mem + half + dsc;
        const double vals[6] = {alu, sfu, mem, half, dsc, total};
        for (int i = 0; i < 6; ++i)
            sums[i] += vals[i];
        t.row({r.workload, Table::pct(alu), Table::pct(sfu),
               Table::pct(mem), Table::pct(half), Table::pct(dsc),
               Table::pct(total)});
    }
    const double n = double(results.size());
    t.row({"AVG", Table::pct(sums[0] / n), Table::pct(sums[1] / n),
           Table::pct(sums[2] / n), Table::pct(sums[3] / n),
           Table::pct(sums[4] / n), Table::pct(sums[5] / n)});
    t.row({"paper-AVG", "22%", "+7% (SFU+MEM)", "", "+2%", "+9%",
           "40%"});
    return makeSuiteResult("fig9", "Fig. 9", t, results);
}

SuiteResult
buildFig10(ExperimentEngine &eng, const ArchConfig &base)
{
    Table t("Figure 10: half-scalar eligible share vs warp size");
    t.row({"bench", "warp 32 (half)", "warp 64 (quarter)"});

    ArchConfig cfg32 = base;
    cfg32.mode = ArchMode::Baseline;
    ArchConfig cfg64 = cfg32;
    cfg64.warpSize = 64;

    // Fan both warp sizes out together before joining either.
    auto f32 = eng.submitSuite(cfg32);
    auto f64 = eng.submitSuite(cfg64);
    std::vector<RunResult> r32, r64;
    for (auto &f : f32)
        r32.push_back(f.get());
    for (auto &f : f64)
        r64.push_back(f.get());
    double s32 = 0, s64 = 0;
    for (std::size_t i = 0; i < r32.size(); ++i) {
        const double h32 = pctDiv(double(r32[i].ev.halfScalarEligible),
                                  double(r32[i].ev.warpInsts));
        const double h64 = pctDiv(double(r64[i].ev.halfScalarEligible),
                                  double(r64[i].ev.warpInsts));
        s32 += h32;
        s64 += h64;
        t.row({r32[i].workload, Table::pct(h32), Table::pct(h64)});
    }
    const double n = double(r32.size());
    t.row({"AVG", Table::pct(s32 / n), Table::pct(s64 / n)});
    t.row({"paper-AVG", "2%", "5%"});

    std::vector<RunResult> runs = std::move(r32);
    runs.insert(runs.end(), r64.begin(), r64.end());
    return makeSuiteResult("fig10", "Fig. 10", t, std::move(runs));
}

SuiteResult
buildFig11(ExperimentEngine &eng, const ArchConfig &base)
{
    Table t("Figure 11: normalized power efficiency (IPC/W) and IPC");
    t.row({"bench", "ALU-scalar", "G-Scalar w/o div", "G-Scalar",
           "G-Scalar (IPC)"});

    const ArchMode modes[] = {ArchMode::Baseline, ArchMode::AluScalar,
                              ArchMode::GScalarNoDiv,
                              ArchMode::GScalarFull};
    // Fan all four modes out (17 benchmarks x 4 configs) before joining.
    std::map<ArchMode, std::vector<std::shared_future<RunResult>>> futures;
    for (const ArchMode m : modes) {
        ArchConfig cfg = base;
        cfg.mode = m;
        futures[m] = eng.submitSuite(cfg);
    }
    std::map<ArchMode, std::vector<RunResult>> results;
    for (const ArchMode m : modes)
        for (auto &f : futures[m])
            results[m].push_back(f.get());

    double sums[4] = {};
    const std::size_t n = results[ArchMode::Baseline].size();
    for (std::size_t i = 0; i < n; ++i) {
        const auto &b = results[ArchMode::Baseline][i];
        const double base_eff = b.power.ipcPerWatt();
        const double e1 =
            results[ArchMode::AluScalar][i].power.ipcPerWatt() / base_eff;
        const double e2 =
            results[ArchMode::GScalarNoDiv][i].power.ipcPerWatt() /
            base_eff;
        const double e3 =
            results[ArchMode::GScalarFull][i].power.ipcPerWatt() /
            base_eff;
        const double ipc =
            results[ArchMode::GScalarFull][i].power.ipc / b.power.ipc;
        sums[0] += e1;
        sums[1] += e2;
        sums[2] += e3;
        sums[3] += ipc;
        t.row({b.workload, Table::num(e1, 3), Table::num(e2, 3),
               Table::num(e3, 3), Table::num(ipc, 3)});
    }
    t.row({"AVG", Table::num(sums[0] / double(n), 3),
           Table::num(sums[1] / double(n), 3),
           Table::num(sums[2] / double(n), 3),
           Table::num(sums[3] / double(n), 3)});
    t.row({"paper-AVG", "~1.08", "-", "1.24 (1.15 vs ALU-scalar)",
           "0.983"});

    std::vector<RunResult> runs;
    for (const ArchMode m : modes)
        runs.insert(runs.end(), results[m].begin(), results[m].end());
    return makeSuiteResult("fig11", "Fig. 11", t, std::move(runs));
}

SuiteResult
buildFig12(ExperimentEngine &eng, const ArchConfig &base)
{
    ArchConfig cfg = base;
    cfg.mode = ArchMode::Baseline; // shadow counters carry all schemes

    Table t("Figure 12: normalized RF dynamic power");
    t.row({"bench", "scalar only [3]", "W-C (BDI) [4]", "ours"});
    double sums[3] = {};
    const auto results = eng.runSuite(cfg);
    for (const RunResult &r : results) {
        const RfEnergyBreakdown b = computeRfEnergy(r.ev);
        const double s = b.scalarOnlyJ / b.baselineJ;
        const double wc = b.bdiJ / b.baselineJ;
        const double ours = b.oursJ / b.baselineJ;
        sums[0] += s;
        sums[1] += wc;
        sums[2] += ours;
        t.row({r.workload, Table::num(s, 3), Table::num(wc, 3),
               Table::num(ours, 3)});
    }
    const double n = double(results.size());
    t.row({"AVG", Table::num(sums[0] / n, 3), Table::num(sums[1] / n, 3),
           Table::num(sums[2] / n, 3)});
    t.row({"paper-AVG", "0.63", "~0.55", "0.46"});
    return makeSuiteResult("fig12", "Fig. 12", t, results);
}

SuiteResult
buildTable3(ExperimentEngine &, const ArchConfig &)
{
    // Pure cost model: no simulations behind this one.
    SuiteResult r;
    r.experiment = "table3";
    r.tag = "Table 3";
    r.title = "Hardware cost model (Table 3 + Sec 5.1)";
    r.text = describeHardwareCost();
    return r;
}

SuiteResult
buildCompressionRatio(ExperimentEngine &eng, const ArchConfig &base)
{
    ArchConfig cfg = base;
    cfg.mode = ArchMode::Baseline;

    Table t("Compression ratio over the register write stream (Sec 5.3)");
    t.row({"bench", "ours", "BDI"});
    double so = 0, sb = 0;
    const auto results = eng.runSuite(cfg);
    for (const RunResult &r : results) {
        const double ours = r.ev.compressionRatio();
        const double bdi = r.ev.bdiCompressionRatio();
        so += ours;
        sb += bdi;
        t.row({r.workload, Table::num(ours, 2), Table::num(bdi, 2)});
    }
    const double n = double(results.size());
    t.row({"AVG", Table::num(so / n, 2), Table::num(sb / n, 2)});
    t.row({"paper-AVG", "2.17", "2.13"});
    return makeSuiteResult("ratio", "Sec 5.3", t, results);
}

SuiteResult
buildSpecialMoveOverhead(ExperimentEngine &eng, const ArchConfig &base)
{
    ArchConfig cfg = base;
    cfg.mode = ArchMode::GScalarFull;

    Table t("Special-move dynamic instruction overhead (Sec 3.3)");
    t.row({"bench", "special moves / instructions"});
    double sum = 0;
    const auto results = eng.runSuite(cfg);
    for (const RunResult &r : results) {
        const double o = pctDiv(double(r.ev.specialMoveInsts),
                                double(r.ev.warpInsts));
        sum += o;
        t.row({r.workload, Table::pct(o, 2)});
    }
    t.row({"AVG", Table::pct(sum / double(results.size()), 2)});
    t.row({"paper", "~2% (hardware-assisted)"});
    return makeSuiteResult("smov", "Sec 3.3", t, results);
}

SuiteResult
buildCompilerScalarComparison(ExperimentEngine &eng,
                              const ArchConfig &base)
{
    ArchConfig cfg = base;
    cfg.mode = ArchMode::Baseline;

    Table t("Static compiler scalarization vs dynamic G-Scalar (Sec 6)");
    t.row({"bench", "compiler", "G-Scalar", "compiler/G-Scalar"});
    double sc = 0, sg = 0;
    const auto results = eng.runSuite(cfg);
    for (const RunResult &r : results) {
        const double wi = double(r.ev.warpInsts);
        const double stat = pctDiv(double(r.ev.staticScalarInsts), wi);
        const double dyn =
            pctDiv(double(r.ev.scalarAluEligible + r.ev.scalarSfuEligible +
                          r.ev.scalarMemEligible +
                          r.ev.halfScalarEligible +
                          r.ev.divergentScalarEligible),
                   wi);
        sc += stat;
        sg += dyn;
        t.row({r.workload, Table::pct(stat), Table::pct(dyn),
               dyn > 0 ? Table::num(stat / dyn, 2) : "-"});
    }
    const double n = double(results.size());
    t.row({"AVG", Table::pct(sc / n), Table::pct(sg / n),
           Table::num((sc / n) / (sg / n), 2)});
    t.row({"paper", "captures ~24% fewer than G-Scalar", "", "~0.76"});
    return makeSuiteResult("compiler", "Sec 6", t, results);
}

SuiteResult
buildSmovCompilerAblation(ExperimentEngine &eng, const ArchConfig &base)
{
    Table t("Special-move overhead: hardware vs compiler-assisted "
            "(Sec 3.3)");
    t.row({"bench", "hardware", "compiler-assisted", "eliminated"});

    ArchConfig hw = base;
    hw.mode = ArchMode::GScalarFull;
    ArchConfig ca = hw;
    ca.compilerAssistedSmov = true;

    auto fh = eng.submitSuite(hw);
    auto fc = eng.submitSuite(ca);

    std::vector<RunResult> runs;
    double sh = 0, sc = 0;
    unsigned n = 0;
    for (std::size_t i = 0; i < fh.size(); ++i) {
        const RunResult rh = fh[i].get();
        const RunResult rc = fc[i].get();

        const double oh = pctDiv(double(rh.ev.specialMoveInsts),
                                 double(rh.ev.warpInsts));
        const double oc = pctDiv(double(rc.ev.specialMoveInsts),
                                 double(rc.ev.warpInsts));
        sh += oh;
        sc += oc;
        ++n;
        t.row({rh.workload, Table::pct(oh, 2), Table::pct(oc, 2),
               oh > 0 ? Table::pct(1.0 - oc / oh, 0) : "-"});
        runs.push_back(rh);
        runs.push_back(rc);
    }
    t.row({"AVG", Table::pct(sh / n, 2), Table::pct(sc / n, 2), ""});
    t.row({"paper", "~2%", "<2% (lifetime analysis)", ""});
    return makeSuiteResult("smovcompiler", "Sec 3.3", t,
                           std::move(runs));
}

SuiteResult
buildOccupancyAblation(ExperimentEngine &eng, const ArchConfig &base)
{
    Table t("Ablation: scalar execution shortening dispatch occupancy "
            "(Sec 6)");
    t.row({"bench", "G-Scalar IPC", "+1-cycle scalar dispatch IPC",
           "speedup"});

    ArchConfig plain = base;
    plain.mode = ArchMode::GScalarFull;
    ArchConfig fast = plain;
    fast.scalarShortensOccupancy = true;

    auto fa = eng.submitSuite(plain);
    auto fb = eng.submitSuite(fast);

    std::vector<RunResult> runs;
    double s = 0;
    unsigned n = 0;
    for (std::size_t i = 0; i < fa.size(); ++i) {
        const RunResult a = fa[i].get();
        const RunResult b = fb[i].get();

        const double speedup = b.power.ipc / a.power.ipc;
        s += speedup;
        ++n;
        t.row({a.workload, Table::num(a.power.ipc, 2),
               Table::num(b.power.ipc, 2), Table::num(speedup, 3)});
        runs.push_back(a);
        runs.push_back(b);
    }
    t.row({"AVG", "", "", Table::num(s / n, 3)});
    return makeSuiteResult("occupancy", "Sec 6", t, std::move(runs));
}

SuiteResult
buildAffineOpportunity(ExperimentEngine &eng, const ArchConfig &base)
{
    ArchConfig cfg = base;
    cfg.mode = ArchMode::Baseline;

    Table t("Affine register writes (related work, Sec 6)");
    t.row({"bench", "affine", "affine non-scalar (extra vs scalar)"});
    double sa = 0, sn = 0;
    const auto results = eng.runSuite(cfg);
    for (const RunResult &r : results) {
        const double wr = double(r.ev.rfWrites);
        const double aff = pctDiv(double(r.ev.affineWrites), wr);
        const double nsc =
            pctDiv(double(r.ev.affineNonScalarWrites), wr);
        sa += aff;
        sn += nsc;
        t.row({r.workload, Table::pct(aff), Table::pct(nsc)});
    }
    const double n = double(results.size());
    t.row({"AVG", Table::pct(sa / n), Table::pct(sn / n)});
    t.row({"paper", "affine units apply to limited instruction types",
           ""});
    return makeSuiteResult("affine", "Sec 6", t, results);
}

SuiteResult
buildBankCountAblation(ExperimentEngine &eng, const ArchConfig &base)
{
    Table t("Ablation: register-file bank count scaling (Sec 4.1)");
    t.row({"banks", "baseline IPC", "ALU-scalar IPC", "G-Scalar IPC",
           "G-Scalar IPC/W vs baseline"});

    const std::vector<std::string> benches = {"MM", "MQ", "ST"};
    const std::vector<unsigned> bankCounts = {8u, 16u, 32u};

    // Fan out every (banks x bench x mode) simulation, then join in
    // table order.
    std::map<std::pair<unsigned, std::string>,
             std::array<std::shared_future<RunResult>, 3>>
        futures;
    for (const unsigned banks : bankCounts) {
        for (const auto &name : benches) {
            ArchConfig b = base;
            b.numBanks = banks;
            b.mode = ArchMode::Baseline;
            auto fb = eng.submit(name, b);
            b.mode = ArchMode::AluScalar;
            auto fa = eng.submit(name, b);
            b.mode = ArchMode::GScalarFull;
            auto fg = eng.submit(name, b);
            futures[{banks, name}] = {fb, fa, fg};
        }
    }
    std::vector<RunResult> runs;
    for (const unsigned banks : bankCounts) {
        double ipc_base = 0, ipc_alu = 0, ipc_gs = 0, eff = 0;
        for (const auto &name : benches) {
            auto &[fb, fa, fg] = futures[{banks, name}];
            const RunResult rb = fb.get();
            const RunResult ra = fa.get();
            const RunResult rg = fg.get();
            ipc_base += rb.power.ipc;
            ipc_alu += ra.power.ipc;
            ipc_gs += rg.power.ipc;
            eff += rg.power.ipcPerWatt() / rb.power.ipcPerWatt();
            runs.push_back(rb);
            runs.push_back(ra);
            runs.push_back(rg);
        }
        const double n = double(benches.size());
        t.row({std::to_string(banks), Table::num(ipc_base / n, 2),
               Table::num(ipc_alu / n, 2), Table::num(ipc_gs / n, 2),
               Table::num(eff / n, 3)});
    }
    return makeSuiteResult("bankcount", "Sec 4.1", t, std::move(runs));
}

SuiteResult
buildWarpWidthAblation(ExperimentEngine &eng, const ArchConfig &base)
{
    Table t("Ablation: warp width vs scalar benefit (Sec 4.3/6)");
    t.row({"config", "full-warp eligible", "half/quarter eligible",
           "IPC/W vs same-width baseline"});

    std::vector<RunResult> runs;
    for (const unsigned warp : {32u, 64u}) {
        for (const bool half : {true, false}) {
            ArchConfig b = base;
            b.warpSize = warp;
            b.mode = ArchMode::Baseline;
            ArchConfig g = b;
            g.mode = ArchMode::GScalarFull;
            g.halfRegisterCompression = half;

            // The same-width baseline suite is a cache hit on the
            // second (half) iteration.
            auto fb = eng.submitSuite(b);
            auto fg = eng.submitSuite(g);

            double full_e = 0, half_e = 0, eff = 0;
            unsigned n = 0;
            for (std::size_t i = 0; i < fb.size(); ++i) {
                const RunResult rb = fb[i].get();
                const RunResult rg = fg[i].get();
                full_e += pctDiv(
                    double(rg.ev.scalarAluEligible +
                           rg.ev.scalarSfuEligible +
                           rg.ev.scalarMemEligible +
                           rg.ev.divergentScalarEligible),
                    double(rg.ev.warpInsts));
                half_e += pctDiv(double(rg.ev.halfScalarEligible),
                                 double(rg.ev.warpInsts));
                eff += rg.power.ipcPerWatt() / rb.power.ipcPerWatt();
                ++n;
                runs.push_back(rg);
            }
            t.row({"warp " + std::to_string(warp) +
                       (half ? " +half-scalar" : " full-warp only"),
                   Table::pct(full_e / n), Table::pct(half_e / n),
                   Table::num(eff / n, 3)});
        }
    }
    return makeSuiteResult("warpwidth", "Sec 4.3/6", t,
                           std::move(runs));
}

SuiteResult
buildHalfRegisterAblation(ExperimentEngine &eng, const ArchConfig &base)
{
    Table t("Ablation: half-register vs whole-register compression "
            "(Sec 3.2/4.3)");
    t.row({"bench", "RF energy (half)", "RF energy (whole)",
           "half-scalar exec (half)", "(whole)"});

    ArchConfig half = base;
    half.mode = ArchMode::GScalarFull;
    half.halfRegisterCompression = true;
    ArchConfig whole = half;
    whole.halfRegisterCompression = false;

    auto fh = eng.submitSuite(half);
    auto fw = eng.submitSuite(whole);

    std::vector<RunResult> runs;
    double s_half = 0, s_whole = 0;
    unsigned n = 0;
    for (std::size_t i = 0; i < fh.size(); ++i) {
        const RunResult rh = fh[i].get();
        const RunResult rw = fw[i].get();

        const RfEnergyBreakdown bh = computeRfEnergy(rh.ev);
        // The baseline shadow is identical across the two runs; use it
        // to normalise the *actual* RF activity of each.
        const EnergyParams p;
        auto actual_rf = [&p](const EventCounts &e) {
            return double(e.rfArrayReads + e.rfArrayWrites) *
                       p.eArrayAccessPj +
                   double(e.bvrAccesses) * p.eBvrAccessPj;
        };
        const double denom = bh.baselineJ * 1e12;
        const double eh = actual_rf(rh.ev) / denom;
        const double ew = actual_rf(rw.ev) / denom;
        s_half += eh;
        s_whole += ew;
        ++n;
        t.row({rh.workload, Table::num(eh, 3), Table::num(ew, 3),
               std::to_string(rh.ev.halfScalarExecuted),
               std::to_string(rw.ev.halfScalarExecuted)});
        runs.push_back(rh);
        runs.push_back(rw);
    }
    t.row({"AVG", Table::num(s_half / n, 3), Table::num(s_whole / n, 3),
           "", ""});
    t.row({"paper", "+7% RF area", "+3% RF area", "", ""});
    return makeSuiteResult("half", "Sec 3.2/4.3", t, std::move(runs));
}

SuiteResult
buildScalarBankAblation(ExperimentEngine &eng, const ArchConfig &base)
{
    Table t("Ablation: prior-work scalar RF bank count (Sec 4.1)");
    t.row({"bench", "1 bank IPC", "2 banks", "4 banks", "G-Scalar IPC",
           "1-bank stall cyc/kinst"});

    const std::vector<std::string> benches = {"MM", "MQ", "SR2", "ST"};

    // Fan out all (bench x bank-count) runs plus the G-Scalar
    // reference runs before joining anything.
    std::map<std::string, std::vector<std::shared_future<RunResult>>>
        bankFutures;
    std::map<std::string, std::shared_future<RunResult>> gsFutures;
    for (const auto &name : benches) {
        for (const unsigned banks : {1u, 2u, 4u}) {
            ArchConfig cfg = base;
            cfg.mode = ArchMode::AluScalar;
            cfg.scalarRfBanks = banks;
            bankFutures[name].push_back(eng.submit(name, cfg));
        }
        ArchConfig gcfg = base;
        gcfg.mode = ArchMode::GScalarFull;
        gsFutures[name] = eng.submit(name, gcfg);
    }
    std::vector<RunResult> runs;
    for (const auto &name : benches) {
        std::vector<double> ipc;
        double stalls_per_kinst = 0;
        bool first_bank = true;
        for (auto &f : bankFutures[name]) {
            const RunResult r = f.get();
            ipc.push_back(r.power.ipc);
            if (first_bank) {
                stalls_per_kinst = 1000.0 *
                                   double(r.ev.scalarBankStalls) /
                                   double(r.ev.warpInsts);
                first_bank = false;
            }
            runs.push_back(r);
        }
        const RunResult g = gsFutures[name].get();
        runs.push_back(g);
        t.row({name, Table::num(ipc[0], 3), Table::num(ipc[1], 3),
               Table::num(ipc[2], 3), Table::num(g.power.ipc, 3),
               Table::num(stalls_per_kinst, 1)});
    }
    return makeSuiteResult("banks", "Sec 4.1", t, std::move(runs));
}

} // namespace

const std::vector<Experiment> &
experiments()
{
    // Reference order: `gscalar bench` emits the default entries in
    // exactly this sequence, so its stdout reproduces
    // docs/bench_reference_output.txt byte for byte.
    static const std::vector<Experiment> registry = {
        {"bankcount", "Sec 4.1",
         "RF bank count scaling: single scalar bank vs per-bank BVRs",
         buildBankCountAblation},
        {"half", "Sec 3.2/4.3",
         "half-register vs whole-register compression trade-off",
         buildHalfRegisterAblation},
        {"banks", "Sec 4.1", "prior-work scalar RF bank count vs G-Scalar",
         buildScalarBankAblation},
        {"occupancy", "Sec 6",
         "scalar execution shortening dispatch occupancy",
         buildOccupancyAblation},
        {"smovcompiler", "Sec 3.3",
         "special-move overhead: hardware vs compiler-assisted",
         buildSmovCompilerAblation},
        {"warpwidth", "Sec 4.3/6", "warp width (32 vs 64) vs scalar benefit",
         buildWarpWidthAblation},
        {"fig1", "Fig. 1", "divergent and divergent-scalar instruction mix",
         buildFig1},
        {"fig8", "Fig. 8", "RF access distribution for operand values",
         buildFig8},
        {"fig9", "Fig. 9", "instructions eligible for scalar execution",
         buildFig9},
        {"fig10", "Fig. 10", "half-scalar eligible share vs warp size",
         buildFig10},
        {"fig11", "Fig. 11", "normalized power efficiency (IPC/W) and IPC",
         buildFig11},
        {"fig12", "Fig. 12", "normalized RF dynamic power", buildFig12},
        {"shootout", "Sec 5.2/5.3",
         "codec shootout: ratio, RF energy and IPC per codec",
         buildCodecShootout, /*inDefaultRun=*/false},
        {"micro", "Sec 3.2",
         "software encode/decode micro-benchmark per codec", buildMicroCodec,
         /*inDefaultRun=*/false},
        {"affine", "Sec 6", "affine register writes vs scalar ones",
         buildAffineOpportunity},
        {"compiler", "Sec 6",
         "static compiler scalarization vs dynamic detection",
         buildCompilerScalarComparison},
        {"ratio", "Sec 5.3", "compression ratio: byte-mask vs BDI",
         buildCompressionRatio},
        {"smov", "Sec 3.3", "special-move dynamic instruction overhead",
         buildSpecialMoveOverhead},
        {"table3", "Table 3", "hardware cost model (codec area/latency)",
         buildTable3},
    };
    return registry;
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const Experiment &e : experiments())
        if (name == e.name)
            return &e;
    return nullptr;
}

} // namespace gs
