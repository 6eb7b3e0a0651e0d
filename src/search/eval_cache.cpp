#include "search/eval_cache.hpp"

namespace lycos::search {

Eval_invariants::Eval_invariants(const Eval_context& ctx)
    : lat_(sched::latency_table_from(ctx.lib))
{
    const std::size_t n = ctx.bsbs.size();
    relevant_.resize(n);
    frames_.reserve(n);
    invariants_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto used = ctx.bsbs[i].graph.used_ops();
        for (std::size_t r = 0; r < ctx.lib.size(); ++r)
            if (ctx.lib[static_cast<hw::Resource_id>(r)].ops.intersects(
                    used))
                relevant_[i].push_back(static_cast<hw::Resource_id>(r));
        frames_.push_back(
            sched::compute_time_frames(ctx.bsbs[i].graph, lat_));
        invariants_.push_back(
            pace::bsb_cost_invariants(ctx.bsbs, i, ctx.target));
    }
}

Eval_cache::Eval_cache(const Eval_context& ctx, std::size_t max_entries,
                       std::shared_ptr<const Eval_invariants> shared)
    : ctx_(ctx),
      inv_(shared != nullptr ? std::move(shared)
                             : std::make_shared<const Eval_invariants>(ctx)),
      max_entries_(max_entries)
{
    memo_.resize(ctx_.bsbs.size());
    if (max_entries_ > 0)
        previous_.resize(ctx_.bsbs.size());
    last_key_.resize(ctx_.bsbs.size());
    last_cost_.resize(ctx_.bsbs.size());
    last_valid_.assign(ctx_.bsbs.size(), 0);
}

std::vector<pace::Bsb_cost> Eval_cache::costs_for(const core::Rmap& alloc)
{
    std::vector<pace::Bsb_cost> out;
    costs_for(alloc, out);
    return out;
}

void Eval_cache::costs_for(const core::Rmap& alloc,
                           std::vector<pace::Bsb_cost>& out)
{
    // Reuse the dense-counts buffer: this runs once per enumerated
    // allocation, and at high hit rates a fresh heap allocation here
    // would rival the lookup cost itself.
    counts_.assign(ctx_.lib.size(), 0);
    for (const auto& [r, c] : alloc.entries())
        counts_[static_cast<std::size_t>(r)] = c;
    costs_for_counts(counts_, out);
}

void Eval_cache::costs_for_counts(std::span<const int> counts,
                                  std::vector<pace::Bsb_cost>& out)
{
    out.resize(ctx_.bsbs.size());
    for (std::size_t i = 0; i < ctx_.bsbs.size(); ++i)
        out[i] = cost_one(i, counts);
}

const pace::Bsb_cost& Eval_cache::cost_one(std::size_t bsb,
                                           std::span<const int> counts)
{
    if (const auto* found = find_one(bsb, counts))
        return *found;
    // find_one left the projection key in key_ — reuse it.
    ++stats_.misses;
    const auto cost = pace::bsb_cost_one(
        ctx_.bsbs, bsb, ctx_.lib, ctx_.target, counts, inv_->latencies(),
        ctx_.ctrl_mode, ctx_.storage, &inv_->frames(bsb),
        &inv_->invariants(bsb), &sched_ws_);
    insert(bsb, key_, cost);
    last_key_[bsb] = key_;
    last_cost_[bsb] = cost;
    last_valid_[bsb] = 1;
    return last_cost_[bsb];
}

const pace::Bsb_cost* Eval_cache::find_one(std::size_t bsb,
                                           std::span<const int> counts)
{
    auto& key = key_;
    key.clear();
    for (hw::Resource_id r : inv_->relevant(bsb))
        key.push_back(counts[static_cast<std::size_t>(r)]);

    // Fast path: successive enumeration/climb points change one
    // type's count, which projects away for most BSBs — comparing
    // a handful of ints beats hashing into the memo.
    if (last_valid_[bsb] != 0 && key == last_key_[bsb]) {
        ++stats_.hits;
        return &last_cost_[bsb];
    }
    auto& memo = memo_[bsb];
    if (const auto it = memo.find(key); it != memo.end()) {
        ++stats_.hits;
        last_key_[bsb] = key;
        last_cost_[bsb] = it->second;
        last_valid_[bsb] = 1;
        return &last_cost_[bsb];
    }
    if (max_entries_ > 0) {
        // Second generation: promote hits back into the current one
        // so the working set survives rotations.
        auto& prev = previous_[bsb];
        if (const auto it = prev.find(key); it != prev.end()) {
            ++stats_.hits;
            const auto cost = it->second;
            prev.erase(it);
            --n_previous_;
            insert(bsb, key, cost);
            last_key_[bsb] = key;
            last_cost_[bsb] = cost;
            last_valid_[bsb] = 1;
            return &last_cost_[bsb];
        }
    }
    return nullptr;
}

void Eval_cache::insert(std::size_t bsb, const std::vector<int>& key,
                        const pace::Bsb_cost& cost)
{
    memo_[bsb].emplace(key, cost);
    ++n_current_;
    if (max_entries_ == 0 || n_current_ < max_entries_)
        return;
    // Rotate generations: the previous one dies, the current one
    // becomes previous, inserts start into empty maps.  clear() keeps
    // each map's bucket array, so the memory high-water mark is the
    // two bounded generations.
    stats_.evictions += static_cast<long long>(n_previous_);
    memo_.swap(previous_);
    for (auto& m : memo_)
        m.clear();
    n_previous_ = n_current_;
    n_current_ = 0;
}

}  // namespace lycos::search
