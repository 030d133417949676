/**
 * @file
 * Shared construction helpers for the test suite: tiny hand-built
 * programs, blocks and traces with known dataflow, the FNV-1a digests
 * the golden tables record, and a scratch directory.
 */

#ifndef CRITICS_TESTS_HELPERS_HH
#define CRITICS_TESTS_HELPERS_HH

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>

#include "analysis/miner.hh"
#include "program/program.hh"
#include "program/trace.hh"

namespace critics::test
{

using program::BasicBlock;
using program::Program;
using program::StaticInst;
using isa::NoReg;
using isa::OpClass;

/** Build a StaticInst with explicit uid and operands. */
inline StaticInst
inst(program::InstUid uid, OpClass op, std::uint8_t dst,
     std::uint8_t src1 = NoReg, std::uint8_t src2 = NoReg)
{
    StaticInst si;
    si.uid = uid;
    si.arch.op = op;
    si.arch.dst = dst;
    si.arch.src1 = src1;
    si.arch.src2 = src2;
    if (op == OpClass::Load || op == OpClass::Store) {
        si.memPattern = program::MemPattern::HotRegion;
        si.memRegionId = 0;
        si.aliasClass = static_cast<std::uint8_t>(uid % 16);
    }
    return si;
}

/** Wrap blocks into a one-function program with a default hot region. */
inline Program
makeProgram(std::vector<BasicBlock> blocks)
{
    Program prog;
    prog.memRegions = {
        {0x40000000u, 64u << 10, 0},
        {0x50000000u, 1u << 20, 0},
        {0x60000000u, 1u << 20, 64},
    };
    program::Function fn;
    fn.name = "test_fn";
    fn.blocks = std::move(blocks);
    prog.funcs.push_back(std::move(fn));
    prog.layout();
    return prog;
}

/** Build a DynInst for hand-made traces. */
inline program::DynInst
dyn(std::uint32_t uid, std::uint32_t address, OpClass op,
    program::DynIdx dep0 = program::NoDep,
    program::DynIdx dep1 = program::NoDep, std::uint8_t sizeBytes = 4)
{
    program::DynInst d;
    d.staticUid = uid;
    d.address = address;
    d.op = op;
    d.dep0 = dep0;
    d.dep1 = dep1;
    d.sizeBytes = sizeBytes;
    return d;
}

/** A trace of `n` independent single-cycle ALU ops in a small loop of
 *  code (always i-cache resident after the first lines). */
inline program::Trace
independentAluTrace(std::size_t n, std::size_t loopInsts = 256)
{
    program::Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        trace.insts.push_back(dyn(
            static_cast<std::uint32_t>(i % loopInsts),
            static_cast<std::uint32_t>(0x10000 + 4 * (i % loopInsts)),
            OpClass::IntAlu));
    }
    return trace;
}

/** A fully serial dependence chain (each op depends on its
 *  predecessor). */
inline program::Trace
serialChainTrace(std::size_t n, std::size_t loopInsts = 256)
{
    program::Trace trace = independentAluTrace(n, loopInsts);
    for (std::size_t i = 1; i < n; ++i)
        trace.insts[i].dep0 = static_cast<program::DynIdx>(i - 1);
    return trace;
}

/** FNV-1a 64 over the little-endian bytes of each fed value. */
class Fnv1a
{
  public:
    template <typename T>
    void
    feed(T value)
    {
        auto v = static_cast<std::uint64_t>(value);
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            hash_ ^= v & 0xFFu;
            hash_ *= 0x100000001b3ULL;
            v >>= 8;
        }
    }

    void feed(double value) { feed(std::bit_cast<std::uint64_t>(value)); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Digest of a chain partition: every member, then every offset. */
inline std::uint64_t
chainsDigest(const analysis::DynChains &chains)
{
    Fnv1a digest;
    for (const program::DynIdx member : chains.members)
        digest.feed(member);
    for (const std::uint32_t offset : chains.offsets)
        digest.feed(offset);
    return digest.value();
}

/** Digest of the mined chains in result order: each chain's length,
 *  uids, dynCount, avgFanout bits, memberFanout bits,
 *  memberConvertible and directlyConvertible. */
inline std::uint64_t
minedDigest(const analysis::MineResult &mined)
{
    Fnv1a digest;
    for (const analysis::MinedChain &chain : mined.chains) {
        digest.feed(static_cast<std::uint32_t>(chain.uids.size()));
        for (const program::InstUid uid : chain.uids)
            digest.feed(uid);
        digest.feed(chain.dynCount);
        digest.feed(chain.avgFanout);
        for (const double f : chain.memberFanout)
            digest.feed(f);
        for (const std::uint8_t conv : chain.memberConvertible)
            digest.feed(conv);
        digest.feed(static_cast<std::uint8_t>(chain.directlyConvertible));
    }
    return digest.value();
}

/** A fresh scratch directory, unique to this process and removed on
 *  destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &stem)
        : path_(std::filesystem::temp_directory_path() /
                (stem + "-" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

} // namespace critics::test

#endif // CRITICS_TESTS_HELPERS_HH
