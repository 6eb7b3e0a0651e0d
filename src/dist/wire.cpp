#include "dist/wire.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace lycos::dist {

// --- primitives ------------------------------------------------------

void Wire_writer::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Wire_writer::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Wire_writer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void Wire_writer::str(const std::string& s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

bool Wire_reader::take(std::size_t n)
{
    if (!ok_ || len_ - pos_ < n) {
        ok_ = false;
        return false;
    }
    return true;
}

std::uint8_t Wire_reader::u8()
{
    if (!take(1))
        return 0;
    return data_[pos_++];
}

std::uint32_t Wire_reader::u32()
{
    if (!take(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
}

std::uint64_t Wire_reader::u64()
{
    if (!take(8))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
}

double Wire_reader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string Wire_reader::str()
{
    const std::uint32_t n = u32();
    if (!take(n))
        return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
}

// --- framing ---------------------------------------------------------

std::vector<std::uint8_t> frame(Msg type,
                                const std::vector<std::uint8_t>& payload)
{
    Wire_writer w;
    w.u32(k_magic);
    w.u8(static_cast<std::uint8_t>(type));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    auto out = w.take();
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

Unframe_status try_unframe(const std::uint8_t* data, std::size_t len,
                           Unframed& out)
{
    constexpr std::size_t header = 4 + 1 + 4;
    if (len < header)
        return Unframe_status::need_more;
    Wire_reader r(data, len);
    if (r.u32() != k_magic)
        return Unframe_status::corrupt;
    const std::uint8_t type = r.u8();
    if (type < static_cast<std::uint8_t>(Msg::hello) ||
        type > static_cast<std::uint8_t>(Msg::done))
        return Unframe_status::corrupt;
    const std::uint32_t n = r.u32();
    if (n > k_max_payload)
        return Unframe_status::corrupt;
    if (len - header < n)
        return Unframe_status::need_more;
    out.type = static_cast<Msg>(type);
    out.payload.assign(data + header, data + header + n);
    out.consumed = header + n;
    return Unframe_status::ok;
}

// --- the Problem encoding --------------------------------------------

namespace {

void put_rmap(Wire_writer& w, const core::Rmap& m)
{
    w.u32(static_cast<std::uint32_t>(m.entries().size()));
    for (const auto& [id, count] : m.entries()) {
        w.u32(static_cast<std::uint32_t>(id));
        w.u32(static_cast<std::uint32_t>(count));
    }
}

/// `n_resources` < 0 skips the id range check (lease results carry
/// datapaths whose library the decoder has not seen; the coordinator
/// validates against its own).
bool get_rmap(Wire_reader& r, long n_resources, core::Rmap& out)
{
    const std::uint32_t n = r.u32();
    if (n > r.remaining() / 8) {
        r.fail();
        return false;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t id = r.u32();
        const std::uint32_t count = r.u32();
        if (!r.ok() || count == 0 ||
            (n_resources >= 0 && id >= static_cast<std::uint32_t>(
                                           n_resources))) {
            r.fail();
            return false;
        }
        out.set(static_cast<hw::Resource_id>(id),
                static_cast<int>(count));
    }
    return r.ok();
}

void put_dfg(Wire_writer& w, const dfg::Dfg& g)
{
    w.u32(static_cast<std::uint32_t>(g.size()));
    for (std::size_t i = 0; i < g.size(); ++i) {
        const auto& op = g.op(static_cast<dfg::Op_id>(i));
        w.u8(static_cast<std::uint8_t>(op.kind));
        w.str(op.name);
        const auto preds = g.preds(static_cast<dfg::Op_id>(i));
        w.u32(static_cast<std::uint32_t>(preds.size()));
        for (const dfg::Op_id p : preds)
            w.u32(static_cast<std::uint32_t>(p));
    }
    w.u32(static_cast<std::uint32_t>(g.live_ins().size()));
    for (const auto& s : g.live_ins())
        w.str(s);
    w.u32(static_cast<std::uint32_t>(g.live_outs().size()));
    for (const auto& s : g.live_outs())
        w.str(s);
}

bool get_dfg(Wire_reader& r, dfg::Dfg& out)
{
    const std::uint32_t n_ops = r.u32();
    // Every op costs at least kind + name length = 9 bytes.
    if (n_ops > r.remaining() / 9) {
        r.fail();
        return false;
    }
    struct Pending_edges {
        dfg::Op_id consumer;
        std::vector<std::uint32_t> preds;
    };
    std::vector<Pending_edges> edges;
    for (std::uint32_t i = 0; i < n_ops; ++i) {
        const std::uint8_t kind = r.u8();
        const std::string name = r.str();
        if (!r.ok() || kind >= hw::n_op_kinds) {
            r.fail();
            return false;
        }
        const dfg::Op_id id =
            out.add_op(static_cast<hw::Op_kind>(kind), name);
        const std::uint32_t n_preds = r.u32();
        if (n_preds > r.remaining() / 4) {
            r.fail();
            return false;
        }
        Pending_edges pe{id, {}};
        pe.preds.reserve(n_preds);
        for (std::uint32_t j = 0; j < n_preds; ++j)
            pe.preds.push_back(r.u32());
        edges.push_back(std::move(pe));
    }
    // Edges applied after all ops exist: a pred may name any op of the
    // graph (ids are dense), but never itself or a ghost.
    for (const auto& pe : edges)
        for (const std::uint32_t p : pe.preds) {
            if (p >= n_ops ||
                static_cast<dfg::Op_id>(p) == pe.consumer) {
                r.fail();
                return false;
            }
            out.add_edge(static_cast<dfg::Op_id>(p), pe.consumer);
        }
    if (!out.is_dag()) {
        r.fail();
        return false;
    }
    const std::uint32_t n_ins = r.u32();
    if (n_ins > r.remaining() / 4) {
        r.fail();
        return false;
    }
    for (std::uint32_t i = 0; i < n_ins; ++i)
        out.add_live_in(r.str());
    const std::uint32_t n_outs = r.u32();
    if (n_outs > r.remaining() / 4) {
        r.fail();
        return false;
    }
    for (std::uint32_t i = 0; i < n_outs; ++i)
        out.add_live_out(r.str());
    return r.ok();
}

void put_problem(Wire_writer& w, const Problem_blob& b)
{
    // Library.
    w.u32(static_cast<std::uint32_t>(b.lib.size()));
    for (const auto& t : b.lib.types()) {
        w.str(t.name);
        w.u32(t.ops.bits());
        w.f64(t.area);
        w.u32(static_cast<std::uint32_t>(t.latency_cycles));
    }
    // Target.
    w.str(b.target.cpu.name);
    w.f64(b.target.cpu.clock_mhz);
    for (const hw::Op_kind k : hw::all_op_kinds())
        w.u32(static_cast<std::uint32_t>(b.target.cpu.cycles_per_op[k]));
    w.f64(b.target.asic.clock_mhz);
    w.f64(b.target.asic.total_area);
    w.f64(b.target.bus.ns_per_word);
    w.f64(b.target.gates.reg);
    w.f64(b.target.gates.and2);
    w.f64(b.target.gates.or2);
    w.f64(b.target.gates.inv);
    // Restrictions + knobs.
    put_rmap(w, b.restrictions);
    w.u8(b.ctrl_mode);
    w.f64(b.area_quantum);
    w.f64(b.dp_table_budget);
    w.f64(b.asic_areas[0]);
    w.f64(b.asic_areas[1]);
    w.u8(b.storage.has_value() ? 1 : 0);
    if (b.storage.has_value()) {
        w.f64(b.storage->reg_area);
        w.f64(b.storage->mux_input_area);
    }
    // BSBs.
    w.u32(static_cast<std::uint32_t>(b.bsbs.size()));
    for (const auto& bsb : b.bsbs) {
        w.str(bsb.name);
        w.f64(bsb.profile);
        w.i64(bsb.source);
        put_dfg(w, bsb.graph);
    }
}

bool get_problem(Wire_reader& r, Problem_blob& b)
{
    // Hw_library::add and Rmap::set enforce their own invariants by
    // throwing; a fuzzer hitting one is a decode failure, not UB.
    try {
        const std::uint32_t n_types = r.u32();
        if (n_types > r.remaining() / 17) {
            r.fail();
            return false;
        }
        for (std::uint32_t i = 0; i < n_types; ++i) {
            hw::Resource_type t;
            t.name = r.str();
            const std::uint32_t bits = r.u32();
            for (const hw::Op_kind k : hw::all_op_kinds())
                if (bits & (1u << hw::op_index(k)))
                    t.ops.insert(k);
            t.area = r.f64();
            t.latency_cycles = static_cast<int>(r.u32());
            if (!r.ok())
                return false;
            b.lib.add(std::move(t));
        }
        b.target.cpu.name = r.str();
        b.target.cpu.clock_mhz = r.f64();
        for (const hw::Op_kind k : hw::all_op_kinds())
            b.target.cpu.cycles_per_op[k] = static_cast<int>(r.u32());
        b.target.asic.clock_mhz = r.f64();
        b.target.asic.total_area = r.f64();
        b.target.bus.ns_per_word = r.f64();
        b.target.gates.reg = r.f64();
        b.target.gates.and2 = r.f64();
        b.target.gates.or2 = r.f64();
        b.target.gates.inv = r.f64();
        if (!get_rmap(r, static_cast<long>(b.lib.size()),
                      b.restrictions))
            return false;
        b.ctrl_mode = r.u8();
        if (b.ctrl_mode > 1) {
            r.fail();
            return false;
        }
        b.area_quantum = r.f64();
        b.dp_table_budget = r.f64();
        b.asic_areas[0] = r.f64();
        b.asic_areas[1] = r.f64();
        const std::uint8_t has_storage = r.u8();
        if (has_storage > 1) {
            r.fail();
            return false;
        }
        if (has_storage == 1) {
            estimate::Storage_model s;
            s.reg_area = r.f64();
            s.mux_input_area = r.f64();
            b.storage = s;
        }
        const std::uint32_t n_bsbs = r.u32();
        if (n_bsbs > r.remaining() / 20) {
            r.fail();
            return false;
        }
        b.bsbs.reserve(n_bsbs);
        for (std::uint32_t i = 0; i < n_bsbs; ++i) {
            bsb::Bsb bsb;
            bsb.name = r.str();
            bsb.profile = r.f64();
            bsb.source = static_cast<cdfg::Node_id>(r.i64());
            if (!get_dfg(r, bsb.graph))
                return false;
            b.bsbs.push_back(std::move(bsb));
        }
        return r.ok();
    }
    catch (const std::exception&) {
        r.fail();
        return false;
    }
}

}  // namespace

Problem_blob Problem_blob::from_problem(const solver::Problem& p)
{
    Problem_blob b;
    b.bsbs.assign(p.bsbs.begin(), p.bsbs.end());
    b.lib = *p.lib;
    b.target = p.target;
    b.restrictions = p.restrictions;
    b.ctrl_mode = static_cast<std::uint8_t>(p.ctrl_mode);
    b.area_quantum = p.area_quantum;
    b.dp_table_budget = p.dp_table_budget;
    b.asic_areas = p.asic_areas;
    if (p.storage != nullptr)
        b.storage = *p.storage;
    return b;
}

solver::Problem Problem_blob::problem() const
{
    solver::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions = restrictions;
    p.ctrl_mode = static_cast<pace::Controller_mode>(ctrl_mode);
    p.area_quantum = area_quantum;
    p.dp_table_budget = dp_table_budget;
    p.asic_areas = asic_areas;
    if (storage.has_value())
        p.storage = &*storage;
    return p;
}

// --- message payloads ------------------------------------------------

std::vector<std::uint8_t> encode_hello()
{
    Wire_writer w;
    w.u32(k_protocol_version);
    return w.take();
}

bool decode_hello(const std::vector<std::uint8_t>& payload,
                  std::uint32_t& version)
{
    Wire_reader r(payload.data(), payload.size());
    version = r.u32();
    return r.at_end();
}

std::vector<std::uint8_t> encode_job(const Job_msg& m)
{
    Wire_writer w;
    put_problem(w, m.problem);
    w.str(m.strategy);
    w.u32(static_cast<std::uint32_t>(m.options.n_threads));
    w.u8(m.options.use_cache ? 1 : 0);
    w.u8(m.options.use_pruning ? 1 : 0);
    w.u64(m.options.cache_capacity);
    w.i64(m.options.pair_limit);
    w.u8(m.options.use_row_bound ? 1 : 0);
    w.i64(m.n_units);
    w.u8(m.chaos_die ? 1 : 0);
    return w.take();
}

bool decode_job(const std::vector<std::uint8_t>& payload, Job_msg& out)
{
    Wire_reader r(payload.data(), payload.size());
    if (!get_problem(r, out.problem))
        return false;
    out.strategy = r.str();
    out.options.n_threads = static_cast<std::int32_t>(r.u32());
    out.options.use_cache = r.u8() != 0;
    out.options.use_pruning = r.u8() != 0;
    out.options.cache_capacity = r.u64();
    out.options.pair_limit = r.i64();
    out.options.use_row_bound = r.u8() != 0;
    out.n_units = r.i64();
    out.chaos_die = r.u8() != 0;
    return r.at_end() && out.n_units >= 0;
}

std::vector<std::uint8_t> encode_lease(const Lease_msg& m)
{
    Wire_writer w;
    w.u64(m.lease_id);
    w.i64(m.begin);
    w.i64(m.end);
    return w.take();
}

bool decode_lease(const std::vector<std::uint8_t>& payload,
                  Lease_msg& out)
{
    Wire_reader r(payload.data(), payload.size());
    out.lease_id = r.u64();
    out.begin = r.i64();
    out.end = r.i64();
    return r.at_end() && out.begin >= 0 && out.begin <= out.end;
}

std::vector<std::uint8_t> encode_lease_result(const Lease_result_msg& m)
{
    Wire_writer w;
    w.u64(m.lease_id);
    w.u8(m.have_best ? 1 : 0);
    w.f64(m.best_time);
    w.f64(m.best_area);
    w.u32(static_cast<std::uint32_t>(m.datapaths.size()));
    for (const auto& dp : m.datapaths)
        put_rmap(w, dp);
    w.i64(m.n_evaluated);
    w.i64(m.n_pruned);
    w.i64(m.n_pruned_remote);
    w.i64(m.dp_rows_reused);
    w.i64(m.dp_rows_swept);
    w.i64(m.rows_visited);
    w.i64(m.rows_pruned);
    w.i64(m.dp_states_swept);
    w.i64(m.dp_cells_dense);
    w.i64(m.dp_states_dropped);
    w.i64(m.incumbents_applied);
    return w.take();
}

bool decode_lease_result(const std::vector<std::uint8_t>& payload,
                         Lease_result_msg& out)
{
    Wire_reader r(payload.data(), payload.size());
    out.lease_id = r.u64();
    out.have_best = r.u8() != 0;
    out.best_time = r.f64();
    out.best_area = r.f64();
    const std::uint32_t n_dps = r.u32();
    if (n_dps > 2) {
        return false;
    }
    try {
        for (std::uint32_t i = 0; i < n_dps; ++i) {
            core::Rmap dp;
            if (!get_rmap(r, -1, dp))
                return false;
            out.datapaths.push_back(std::move(dp));
        }
    }
    catch (const std::exception&) {
        return false;
    }
    out.n_evaluated = r.i64();
    out.n_pruned = r.i64();
    out.n_pruned_remote = r.i64();
    out.dp_rows_reused = r.i64();
    out.dp_rows_swept = r.i64();
    out.rows_visited = r.i64();
    out.rows_pruned = r.i64();
    out.dp_states_swept = r.i64();
    out.dp_cells_dense = r.i64();
    out.dp_states_dropped = r.i64();
    out.incumbents_applied = r.i64();
    return r.at_end() &&
           (out.have_best ? !out.datapaths.empty()
                          : out.datapaths.empty());
}

std::vector<std::uint8_t> encode_incumbent(double time_ns)
{
    Wire_writer w;
    w.f64(time_ns);
    return w.take();
}

bool decode_incumbent(const std::vector<std::uint8_t>& payload,
                      double& time_ns)
{
    Wire_reader r(payload.data(), payload.size());
    time_ns = r.f64();
    return r.at_end();
}

}  // namespace lycos::dist
