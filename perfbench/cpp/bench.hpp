// Shared types of the benchmark: run arguments, the result it
// prints, and the correctness checker.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path dir;  ///< scratch directory inside the checkout
    /// CLOCK_MONOTONIC reading taken just before this process was spawned
    /// (0 = use this process's start), the origin of setup_s.
    std::int64_t spawn_ns = 0;
    /// Name of a check whose outcome is corrupted on purpose (tests).
    std::string corrupt;
    /// Traced runs write their spans to <trace_out>.{client,server}.tsv.
    std::filesystem::path trace_out;
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Records named checks. A check fails when its predicate is false; with
/// `--corrupt <name>` the workload damages that check's outcome before
/// the predicate runs, so the predicate must see the damage.
class Checker {
public:
    explicit Checker(std::string corrupt) : corrupt_(std::move(corrupt)) {}

    /// True when the named check's outcome must be corrupted.
    bool corrupt(const std::string& name) {
        if (name != corrupt_) return false;
        corrupted_ = true;
        return true;
    }
    void check(const std::string& name, bool ok, const std::string& detail);

    bool all_passed() const { return failures_.empty(); }
    const std::vector<std::string>& failures() const { return failures_; }
    /// A requested corruption that no check consumed is a test error.
    bool corruption_unused() const { return !corrupt_.empty() && !corrupted_; }

private:
    std::string corrupt_;
    bool corrupted_ = false;
    std::vector<std::string> failures_;
};

struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;
    /// Printed to stderr only: figures that are not BENCHMARK.json
    /// metrics (update latency, IVF latency, tails, counts).
    std::map<std::string, double> reference;
};

void run_upload(const RunArgs& args, Checker& checker, Result& result);
void run_search(const RunArgs& args, Checker& checker, Result& result);
void run_serve(const RunArgs& args, Checker& checker, Result& result);
void run_cluster(const RunArgs& args, Checker& checker, Result& result);

int serve_main(int argc, char** argv);

}  // namespace perfbench
