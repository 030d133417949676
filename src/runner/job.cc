#include "runner/job.hh"

#include <cstdio>
#include <sstream>

#include "support/json.hh"

namespace critics::runner
{

namespace
{

class SpecBuilder
{
  public:
    void
    add(const char *key, const std::string &value)
    {
        os_ << key << '=' << value << ';';
    }

    void
    add(const char *key, std::uint64_t value)
    {
        os_ << key << '=' << value << ';';
    }

    void
    add(const char *key, unsigned value)
    {
        os_ << key << '=' << value << ';';
    }

    void
    add(const char *key, bool value)
    {
        os_ << key << '=' << (value ? 1 : 0) << ';';
    }

    void
    add(const char *key, double value)
    {
        os_ << key << '=' << json::hexFloat(value) << ';';
    }

    void
    add(const char *key, const std::vector<double> &values)
    {
        os_ << key << '=';
        for (const double v : values)
            os_ << json::hexFloat(v) << ',';
        os_ << ';';
    }

    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

void
appendProfile(SpecBuilder &b, const workload::AppProfile &p)
{
    b.add("name", p.name);
    b.add("suite", static_cast<unsigned>(p.suite));
    b.add("seed", p.seed);
    b.add("numFunctions", p.numFunctions);
    b.add("dispatchTargets", p.dispatchTargets);
    b.add("minBlocksPerFn", p.minBlocksPerFn);
    b.add("maxBlocksPerFn", p.maxBlocksPerFn);
    b.add("minBlockInsts", p.minBlockInsts);
    b.add("maxBlockInsts", p.maxBlockInsts);
    b.add("funcZipfSkew", p.funcZipfSkew);
    b.add("callDensity", p.callDensity);
    b.add("loopBackProb", p.loopBackProb);
    b.add("loopContinueBias", p.loopContinueBias);
    b.add("unpredictableBranchFrac", p.unpredictableBranchFrac);
    b.add("wCritChain", p.wCritChain);
    b.add("wBroadcast", p.wBroadcast);
    b.add("wSerial", p.wSerial);
    b.add("wIndependent", p.wIndependent);
    b.add("chainCritNodesW", p.chainCritNodesW);
    b.add("chainGapW", p.chainGapW);
    b.add("critFanoutW", p.critFanoutW);
    b.add("critFanoutBase", p.critFanoutBase);
    b.add("critFanoutStep", p.critFanoutStep);
    b.add("serialLenW", p.serialLenW);
    b.add("loopCarriedFrac", p.loopCarriedFrac);
    b.add("critNodeLoadFrac", p.critNodeLoadFrac);
    b.add("fracLoad", p.fracLoad);
    b.add("fracStore", p.fracStore);
    b.add("fracMul", p.fracMul);
    b.add("fracDiv", p.fracDiv);
    b.add("fracFpAdd", p.fracFpAdd);
    b.add("fracFpMul", p.fracFpMul);
    b.add("fracFpDiv", p.fracFpDiv);
    b.add("predicatedFrac", p.predicatedFrac);
    b.add("smallImmFrac", p.smallImmFrac);
    b.add("highRegFrac", p.highRegFrac);
    b.add("hotRegionBytes", p.hotRegionBytes);
    b.add("coldRegionBytes", p.coldRegionBytes);
    b.add("strideRegionBytes", p.strideRegionBytes);
    b.add("strideStep", p.strideStep);
    b.add("memHotFrac", p.memHotFrac);
    b.add("memStrideFrac", p.memStrideFrac);
}

void
appendOptions(SpecBuilder &b, const sim::ExperimentOptions &o)
{
    b.add("traceInsts", o.traceInsts);
    b.add("warmupFraction", o.warmupFraction);
    b.add("profileFraction", o.profileFraction);
    b.add("crit.window", o.crit.window);
    b.add("crit.fanoutThreshold", o.crit.fanoutThreshold);
    b.add("crit.chainCritThreshold", o.crit.chainCritThreshold);
    b.add("crit.maxChainLen", o.crit.maxChainLen);
}

void
appendVariant(SpecBuilder &b, const sim::Variant &v)
{
    // Note: v.label is deliberately excluded — it is presentation-only,
    // so identically-configured jobs dedup regardless of how a bench
    // names them.
    b.add("transform", static_cast<unsigned>(v.transform));
    b.add("switchMode", static_cast<unsigned>(v.switchMode));
    b.add("maxChainLen", v.maxChainLen);
    b.add("exactChainLen", v.exactChainLen);
    b.add("hasProfileFraction", v.profileFraction.has_value());
    b.add("variantProfileFraction", v.profileFraction.value_or(0.0));
    b.add("perfectBranch", v.perfectBranch);
    b.add("efetch", v.efetch);
    b.add("icache4x", v.icache4x);
    b.add("doubleFrontend", v.doubleFrontend);
    b.add("aluPrio", v.aluPrio);
    b.add("backendPrio", v.backendPrio);
    b.add("criticalLoadPrefetch", v.criticalLoadPrefetch);
}

} // namespace

std::string
JobSpec::appKey() const
{
    SpecBuilder b;
    appendProfile(b, profile);
    appendOptions(b, options);
    return b.str();
}

std::string
JobSpec::specString() const
{
    SpecBuilder b;
    appendProfile(b, profile);
    appendOptions(b, options);
    appendVariant(b, variant);
    return b.str();
}

std::uint64_t
hashSpecString(const std::string &spec, int schema)
{
    const std::string keyed = "critics-runner-schema-v" +
                              std::to_string(schema) + "|" + spec;
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV offset basis
    for (const char c : keyed) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL; // FNV prime
    }
    return h;
}

std::string
hashHexOf(std::uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::uint64_t
JobSpec::hash() const
{
    return hashSpecString(specString());
}

std::string
JobSpec::hashHex() const
{
    return hashHexOf(hash());
}

std::vector<JobSpec>
makeGrid(const std::vector<workload::AppProfile> &apps,
         const std::vector<sim::Variant> &variants,
         const sim::ExperimentOptions &options)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(apps.size() * variants.size());
    for (const auto &app : apps) {
        for (const auto &variant : variants)
            jobs.push_back(JobSpec{app, variant, options});
    }
    return jobs;
}

} // namespace critics::runner
