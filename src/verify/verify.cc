#include "verify/verify.hh"

#include <cstdlib>
#include <cstring>

#include "stats/registry.hh"
#include "support/logging.hh"

namespace critics::verify
{

Level
levelFromEnv()
{
    const char *value = std::getenv("CRITICS_VERIFY");
    if (value == nullptr || *value == '\0')
        return Level::Structural;
    if (std::strcmp(value, "off") == 0)
        return Level::Off;
    if (std::strcmp(value, "structural") == 0)
        return Level::Structural;
    if (std::strcmp(value, "global") == 0)
        return Level::Global;
    critics_fatal("CRITICS_VERIFY='", value,
                  "' is not one of off|structural|global");
}

Counters &
counters()
{
    static Counters instance;
    return instance;
}

void
registerStats(stats::StatRegistry &reg)
{
    Counters &c = counters();
    const auto bind = [&reg](const char *name,
                             const std::atomic<std::uint64_t> &v,
                             const char *desc) {
        reg.addFormula(name,
                       [&v] {
                           return static_cast<double>(
                               v.load(std::memory_order_relaxed));
                       },
                       desc);
    };
    bind("verify.structChecks", c.structuralChecks,
         "structural pass post-condition walks");
    bind("verify.globalChecks", c.globalChecks,
         "whole-program CFG differential verifications");
    bind("verify.errors", c.errors, "error-severity findings");
    bind("verify.warnings", c.warnings, "warning-severity findings");
    bind("verify.advisories", c.advisories, "advisory lint findings");
}

PassVerifier::PassVerifier(const char *passName,
                           const program::Program &prog,
                           PassAudit *audit)
    : name_(passName),
      audit_(audit),
      level_(audit ? audit->level : levelFromEnv())
{
    if (audit_) {
        // The audit's report may already hold findings from earlier
        // passes (opp16+critic shares one); count only our deltas.
        baseErrors_ = audit_->report.errors();
        baseWarnings_ = audit_->report.warnings();
        baseAdvice_ = audit_->report.advice();
    }
    if (level_ == Level::Global) {
        pre_.capture(prog);
        preGlobal_.capture(prog);
    }
}

Report *
PassVerifier::sink()
{
    return audit_ ? &audit_->report : nullptr;
}

void
PassVerifier::noteTransformedChain(
    const std::vector<program::InstUid> &chain)
{
    if (level_ == Level::Global)
        chains_.push_back(chain);
}

void
PassVerifier::finish(const program::Program &prog)
{
    if (level_ == Level::Off)
        return;

    Report local;
    Report &report = audit_ ? audit_->report : local;

    verifyStructure(prog, report, structural_);
    counters().structuralChecks.fetch_add(1, std::memory_order_relaxed);
    if (level_ == Level::Global) {
        verifyDataflow(pre_, prog, report);
        verifyChainsContiguous(prog, chains_, report);
        verifyCfg(prog, report);
        verifyGlobal(preGlobal_, prog, report);
        verifyChainLinks(preGlobal_, prog, chains_, report);
        counters().globalChecks.fetch_add(1, std::memory_order_relaxed);
    }

    // The deltas include the in-pass skip advisories the pass itself
    // reported through sink(); counting them here (once, at finish)
    // keeps the increment out of the per-chain hot path.
    Counters &c = counters();
    c.errors.fetch_add(report.errors() - baseErrors_,
                       std::memory_order_relaxed);
    c.warnings.fetch_add(report.warnings() - baseWarnings_,
                         std::memory_order_relaxed);
    c.advisories.fetch_add(report.advice() - baseAdvice_,
                           std::memory_order_relaxed);

    if (audit_) {
        audit_->transformedChains.insert(
            audit_->transformedChains.end(), chains_.begin(),
            chains_.end());
        return;
    }
    if (!report.clean()) {
        critics_panic("pass '", name_,
                      "' violated its post-conditions:\n",
                      report.render());
    }
}

} // namespace critics::verify
