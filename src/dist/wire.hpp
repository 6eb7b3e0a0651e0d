// The distributed search's wire format (docs/distributed.md).
//
// A small length-prefixed binary protocol:
//
//   frame   = magic u32 ("LYD1") | type u8 | payload_len u32 | payload
//
// All integers little-endian; doubles travel as their IEEE-754 bit
// patterns (never reformatted through text), which is what makes the
// distributed reduce *bit*-identical to a local solve.  Payloads are
// capped (k_max_payload) so a corrupt length cannot allocate the
// machine away, and every decoder is bounds-checked: truncated or
// garbage input yields `false` from decode_* (or `corrupt` /
// `need_more` from try_unframe), never UB — the property tests in
// tests/test_dist.cpp fuzz exactly this under ASan.
//
// Message catalogue (direction, payload):
//
//   hello         worker -> coord   protocol version
//   job           coord -> worker   Problem + strategy + solve knobs
//   lease         coord -> worker   one contiguous unit range to solve
//   lease_result  worker -> coord   best tuple + datapath(s) + counters
//   incumbent     coord -> worker   a tightened global bound (f64 bits)
//   done          coord -> worker   no more leases; disconnect
//
// The Problem encoding is canonical and self-contained: library,
// target, restrictions, every BSB's DFG (ops, edges, live sets),
// and the scalar knobs.  Problem_blob owns the deep copies so a
// decoded problem can outlive the buffer it came from.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bsb/bsb.hpp"
#include "core/rmap.hpp"
#include "estimate/storage.hpp"
#include "hw/resource.hpp"
#include "hw/target.hpp"
#include "solver/solver.hpp"

namespace lycos::dist {

/// Frame magic: "LYD1" as little-endian bytes.
inline constexpr std::uint32_t k_magic = 0x3144594Cu;

/// Largest payload a frame may carry (64 MiB) — an upper bound on any
/// real Problem this repo builds, and the allocation cap a corrupt
/// length prefix runs into.
inline constexpr std::uint32_t k_max_payload = 1u << 26;

/// Sent in hello; the coordinator drops a worker whose version
/// differs.  Bumped whenever a message layout changes.
inline constexpr std::uint32_t k_protocol_version = 2;

enum class Msg : std::uint8_t {
    hello = 1,
    job = 2,
    lease = 3,
    lease_result = 4,
    incumbent = 5,
    done = 6,
};

// --- primitive serialization -----------------------------------------

/// Append-only little-endian byte writer.
class Wire_writer {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /// IEEE-754 bit pattern — the double survives bit-for-bit.
    void f64(double v);
    /// u32 length + raw bytes.
    void str(const std::string& s);

    const std::vector<std::uint8_t>& bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader.  Any overrun latches !ok()
/// and every subsequent read returns a zero value — decoders check
/// ok() (and at_end(), rejecting trailing garbage) once at the end
/// instead of after every field.
class Wire_reader {
public:
    Wire_reader(const std::uint8_t* data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();

    bool ok() const { return ok_; }
    bool at_end() const { return ok_ && pos_ == len_; }
    std::size_t remaining() const { return ok_ ? len_ - pos_ : 0; }
    void fail() { ok_ = false; }

private:
    bool take(std::size_t n);
    const std::uint8_t* data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// --- framing ---------------------------------------------------------

/// Wrap a payload in a frame ready for send_all.
std::vector<std::uint8_t> frame(Msg type,
                                const std::vector<std::uint8_t>& payload);

enum class Unframe_status : std::uint8_t {
    ok,         ///< one complete frame extracted
    need_more,  ///< prefix is consistent but incomplete — read more
    corrupt,    ///< bad magic, unknown type, or oversized length
};

struct Unframed {
    Msg type = Msg::hello;
    std::vector<std::uint8_t> payload;
    std::size_t consumed = 0;  ///< bytes to drop from the stream buffer
};

/// Try to extract one frame from the front of a stream buffer.
Unframe_status try_unframe(const std::uint8_t* data, std::size_t len,
                           Unframed& out);

// --- the Problem encoding --------------------------------------------

/// A solver::Problem deep-copied into owned storage: the decoded side
/// of the job message.  problem() returns a view whose span/pointers
/// reference this blob — keep it alive as long as any Session built
/// from it (same lifetime rule as solver::Problem itself).
struct Problem_blob {
    std::vector<bsb::Bsb> bsbs;
    hw::Hw_library lib;
    hw::Target target;
    core::Rmap restrictions;
    std::uint8_t ctrl_mode = 0;
    double area_quantum = 0.0;
    double dp_table_budget = 0.0;
    std::array<double, 2> asic_areas{0.0, 0.0};
    std::optional<estimate::Storage_model> storage;

    static Problem_blob from_problem(const solver::Problem& p);
    solver::Problem problem() const;
};

// --- message payloads ------------------------------------------------

/// The Solve_options subset that travels: everything answer-shaping
/// or perf-relevant; deadlines/faults/windows stay per-side.
struct Wire_options {
    std::int32_t n_threads = 0;
    bool use_cache = true;
    bool use_pruning = true;
    std::uint64_t cache_capacity = 0;
    // Multi_asic_extras (applied only when strategy=multi_asic_bb):
    std::int64_t pair_limit = solver::Multi_asic_extras{}.pair_limit;
    bool use_row_bound = solver::Multi_asic_extras{}.use_row_bound;
};

struct Job_msg {
    Problem_blob problem;
    std::string strategy;
    Wire_options options;
    std::int64_t n_units = 0;  ///< leased index space (leaves / rows)
    /// Chaos: this worker must die mid-way through its first lease
    /// (close the socket without reporting) — tests/CI only.
    bool chaos_die = false;
};

struct Lease_msg {
    std::uint64_t lease_id = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

struct Lease_result_msg {
    std::uint64_t lease_id = 0;
    bool have_best = false;
    double best_time = 0.0;  ///< hybrid ns of the window's best tuple
    double best_area = 0.0;  ///< datapath area (summed for multi)
    /// The winning datapath(s): 1 entry for single-ASIC strategies, 2
    /// for multi_asic_bb.  The coordinator re-evaluates these locally
    /// — deterministic functions of (context, allocation) — instead of
    /// shipping the full partition.
    std::vector<core::Rmap> datapaths;
    // Counters folded into the coordinator's Solve_result:
    std::int64_t n_evaluated = 0;
    std::int64_t n_pruned = 0;
    std::int64_t n_pruned_remote = 0;
    std::int64_t dp_rows_reused = 0;
    std::int64_t dp_rows_swept = 0;
    std::int64_t rows_visited = 0;
    std::int64_t rows_pruned = 0;
    std::int64_t dp_states_swept = 0;
    std::int64_t dp_cells_dense = 0;
    std::int64_t dp_states_dropped = 0;
    /// Cumulative on the worker: broadcasts that tightened its bound.
    std::int64_t incumbents_applied = 0;
};

// --- encoders / decoders ---------------------------------------------
//
// Encoders return the raw payload (frame it with frame()).  Decoders
// return false on truncated, oversized, or structurally invalid input
// — including DFG edges naming unknown ops, cyclic graphs, op kinds
// past the enum, and restriction ids outside the library.

std::vector<std::uint8_t> encode_hello();
bool decode_hello(const std::vector<std::uint8_t>& payload,
                  std::uint32_t& version);

std::vector<std::uint8_t> encode_job(const Job_msg& m);
bool decode_job(const std::vector<std::uint8_t>& payload, Job_msg& out);

std::vector<std::uint8_t> encode_lease(const Lease_msg& m);
bool decode_lease(const std::vector<std::uint8_t>& payload,
                  Lease_msg& out);

std::vector<std::uint8_t> encode_lease_result(const Lease_result_msg& m);
bool decode_lease_result(const std::vector<std::uint8_t>& payload,
                         Lease_result_msg& out);

std::vector<std::uint8_t> encode_incumbent(double time_ns);
bool decode_incumbent(const std::vector<std::uint8_t>& payload,
                      double& time_ns);

}  // namespace lycos::dist
