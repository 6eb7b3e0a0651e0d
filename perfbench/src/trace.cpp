#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::string layer_of(std::string_view name)
{
    return std::string(name.substr(0, name.find('.')));
}

// Total length of the union of [a, b) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double end = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, end);
        b = std::min(b, hi);
        if (b > a) {
            total += b - a;
            end = b;
        }
    }
    return total;
}

}  // namespace

std::uint64_t Tracer::new_op()
{
    std::lock_guard lock(mutex_);
    return ++next_op_;
}

double Tracer::to_us(clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

double Tracer::now_us() const
{
    return to_us(clock::now());
}

std::uint64_t Tracer::reserve_id()
{
    if (!enabled_)
        return 0;
    std::lock_guard lock(mutex_);
    return ++next_id_;
}

void Tracer::record_as(std::uint64_t id, std::string_view name, std::uint64_t op,
                       std::uint64_t parent, double t0_us, double t1_us)
{
    if (!enabled_)
        return;
    std::lock_guard lock(mutex_);
    spans_.push_back({std::string(name), op, id, parent, t0_us, t1_us});
}

std::uint64_t Tracer::record(std::string_view name, std::uint64_t op,
                             std::uint64_t parent, double t0_us, double t1_us)
{
    const std::uint64_t id = reserve_id();
    record_as(id, name, op, parent, t0_us, t1_us);
    return id;
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, std::uint64_t op,
                     std::uint64_t parent)
    : tracer_(tracer), name_(name), op_(op), parent_(parent),
      id_(tracer.reserve_id()), t0_us_(tracer.enabled() ? tracer.now_us() : 0.0)
{
}

Tracer::Scope::~Scope()
{
    if (tracer_.enabled())
        tracer_.record_as(id_, name_, op_, parent_, t0_us_, tracer_.now_us());
}

std::vector<double> Tracer::durations_ms(std::string_view name) const
{
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const Span& s : spans_)
        if (s.name == name)
            out.push_back((s.t1_us - s.t0_us) / 1e3);
    return out;
}

std::map<std::string, double> Tracer::self_ms_per_op() const
{
    std::lock_guard lock(mutex_);
    std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    std::set<std::uint64_t> ops;
    for (const Span& s : spans_) {
        ops.insert(s.op);
        if (s.parent != 0)
            children[s.parent].emplace_back(s.t0_us, s.t1_us);
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
        const auto it = children.find(s.id);
        const double kids =
            it == children.end() ? 0.0 : covered(it->second, s.t0_us, s.t1_us);
        self[layer_of(s.name)] += (s.t1_us - s.t0_us - kids) / 1e3;
    }
    if (!ops.empty())
        for (auto& [layer, ms] : self)
            ms /= static_cast<double>(ops.size());
    return self;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& metadata) const
{
    std::lock_guard lock(mutex_);

    // One track per set of operations that never overlap in time.
    std::map<std::uint64_t, std::pair<double, double>> extent;
    for (const Span& s : spans_) {
        auto [it, fresh] = extent.try_emplace(s.op, s.t0_us, s.t1_us);
        if (!fresh) {
            it->second.first = std::min(it->second.first, s.t0_us);
            it->second.second = std::max(it->second.second, s.t1_us);
        }
    }
    std::vector<std::pair<std::pair<double, double>, std::uint64_t>> by_start;
    for (const auto& [op, iv] : extent)
        by_start.push_back({iv, op});
    std::sort(by_start.begin(), by_start.end());
    std::vector<double> lane_end;
    std::unordered_map<std::uint64_t, std::size_t> lane_of;
    for (const auto& [iv, op] : by_start) {
        std::size_t lane = 0;
        while (lane < lane_end.size() && lane_end[lane] > iv.first)
            ++lane;
        if (lane == lane_end.size())
            lane_end.push_back(0.0);
        lane_end[lane] = iv.second;
        lane_of[op] = lane;
    }

    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata
        << ",\"traceEvents\":[";
    char buf[512];
    bool first = true;
    for (const Span& s : spans_) {
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                      "\"args\":{\"op\":%llu,\"span\":%llu,\"parent\":%llu}}",
                      first ? "" : ",", s.name.c_str(),
                      layer_of(s.name).c_str(), s.t0_us, s.t1_us - s.t0_us,
                      lane_of[s.op] + 1, static_cast<unsigned long long>(s.op),
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        out << buf;
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
