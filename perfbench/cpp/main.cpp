// perfbench: one workload run of the MIE stack, or (`perfbench serve`) the
// server process a run talks to. See perfbench/README.md.
//
//   perfbench run --workload upload|search|serve|cluster --seed N
//                 --seconds S --trace 0|1 --dir DIR [--spawn-ns NS]
//                 [--corrupt CHECK] [--trace-out PREFIX]
//
// The last line of stdout is the result JSON; everything else (the
// reference figures and the per-layer table) goes to stderr.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

void Checker::check(const std::string& name, bool ok,
                    const std::string& detail) {
    if (ok) return;
    failures_.push_back(name);
    std::cerr << "CHECK FAILED " << name << ": " << detail << "\n";
}

namespace {

std::string json_number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return buf;
}

int run_main(int argc, char** argv) {
    RunArgs args;
    for (int i = 0; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") args.workload = value;
        else if (key == "--seed") args.seed = std::stoull(value);
        else if (key == "--seconds") args.seconds = std::stod(value);
        else if (key == "--trace") args.trace = value == "1";
        else if (key == "--dir") args.dir = value;
        else if (key == "--spawn-ns") args.spawn_ns = std::stoll(value);
        else if (key == "--corrupt") args.corrupt = value;
        else if (key == "--trace-out") args.trace_out = value;
        else {
            std::cerr << "unknown flag " << key << "\n";
            return 2;
        }
    }
    if (args.dir.empty() || args.seconds <= 0.0) {
        std::cerr << "--dir and a positive --seconds are required\n";
        return 2;
    }
    if (args.spawn_ns == 0) args.spawn_ns = now_ns();
    std::filesystem::create_directories(args.dir);

    Checker checker(args.corrupt);
    Result result;
    if (args.workload == "upload") run_upload(args, checker, result);
    else if (args.workload == "search") run_search(args, checker, result);
    else if (args.workload == "serve") run_serve(args, checker, result);
    else if (args.workload == "cluster") run_cluster(args, checker, result);
    else {
        std::cerr << "unknown workload " << args.workload << "\n";
        return 2;
    }
    if (checker.corruption_unused()) {
        std::cerr << "--corrupt " << args.corrupt
                  << " names no check of this workload\n";
        return 3;
    }

    std::cerr << "reference:\n";
    for (const auto& [name, value] : result.reference) {
        std::cerr << "  " << name << " = " << json_number(value) << "\n";
    }
    for (const auto& [title, metrics] :
         {std::pair{"end_to_end", &result.end_to_end},
          std::pair{"per_layer", &result.per_layer}}) {
        if (metrics->empty()) continue;
        std::cerr << title << ":\n";
        for (const auto& [name, m] : *metrics) {
            std::cerr << "  " << name << " = " << json_number(m.value) << " "
                      << m.unit << "\n";
        }
    }

    const auto& shown = args.trace ? result.per_layer : result.end_to_end;
    std::string json = "{\"correct\": ";
    json += checker.all_passed() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : shown) {
        if (!first) json += ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    if (argc >= 2 && std::string(argv[1]) == "serve") {
        return perfbench::serve_main(argc - 2, argv + 2);
    }
    if (argc < 2 || std::string(argv[1]) != "run") {
        std::cerr << "usage: perfbench run ... | perfbench serve ...\n";
        return 2;
    }
    try {
        return perfbench::run_main(argc - 2, argv + 2);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
