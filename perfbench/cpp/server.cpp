// `perfbench serve`: the server side of every workload, in its own process.
//
//   single   one DurableServer behind a GroupCommitter + ReactorServer
//   cluster  kClusterShards shards, each a reactor-hosted cluster::Node primary and a
//            follower Node fed by a Replicator that pulls from the
//            primary over TCP; pumps run only on the PUMP command
//
// Control protocol on stdin/stdout, one line each way:
//   STATS            counters, span totals and peak RSS as key=value words
//   SNAPSHOT <path>  export_snapshot() of every node to <path>.<node>
//   TRACE 0|1        turns span recording off/on
//   TRACE_WRITE <p>  writes this process's spans to <p> as TSV
//   PUMP             one Replicator::pump() round per follower
//   CATCHUP          Replicator::sync() per follower
//   CHECKPOINT       DurableServer::checkpoint_now() on every node
//   QUIT             stops the reactors and committers, exits 0
// EOF on stdin behaves like QUIT.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/replication.hpp"
#include "exec/exec.hpp"
#include "harness.hpp"
#include "mie/durable_server.hpp"
#include "mie/wire.hpp"
#include "net/tcp.hpp"
#include "proc.hpp"
#include "reactor/group_commit.hpp"
#include "reactor/reactor.hpp"
#include "store/file.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace mie;

struct ServeArgs {
    fs::path dir;
    std::string mode = "single";
    std::uint64_t checkpoint_bytes = 64u << 20;
};

DurableServer::Options storage_options(const ServeArgs& args) {
    DurableServer::Options options;
    options.wal.sync_policy = store::SyncPolicy::kEveryRecord;
    options.checkpoint_every_bytes = args.checkpoint_bytes;
    return options;
}

reactor::ReactorOptions reactor_options() {
    reactor::ReactorOptions options;
    options.idle_timeout_seconds = 0.0;
    return options;
}

/// One reactor-hosted request handler: read path + group-committed
/// write path, both decorated.
struct Hosted {
    Hosted(net::RequestHandler& handler, net::BatchRequestHandler& batch)
        : reads(handler),
          writes(batch),
          committer(writes),
          server(reads, &committer,
                 [](BytesView request) { return is_mutating_request(request); },
                 reactor_options()) {
        server.start();
    }
    void stop() {
        server.stop();
        committer.stop();
    }

    TracedReadHandler reads;
    TracedBatchHandler writes;
    reactor::GroupCommitter committer;
    reactor::ReactorServer server;
};

struct ShardNodes {
    ShardNodes(CountingVfs& vfs, const fs::path& dir, const ServeArgs& args)
        : primary(vfs, dir / "primary",
                  cluster::NodeOptions{.role = cluster::Role::kPrimary,
                                       .storage = storage_options(args)}),
          follower(vfs, dir / "follower",
                   cluster::NodeOptions{.role = cluster::Role::kFollower,
                                        .storage = storage_options(args)}),
          hosted(primary, primary),
          link("127.0.0.1", hosted.server.port(),
               net::TcpOptions{.io_timeout_seconds = 120.0}),
          replicator(follower, link) {}

    cluster::Node primary;
    cluster::Node follower;
    Hosted hosted;
    net::TcpTransport link;
    cluster::Replicator replicator;
};

void put(std::ostringstream& out, const std::string& key, double value) {
    out << ' ' << key << '=' << value;
}

void add_durability(std::ostringstream& out, const std::string& prefix,
                    const DurableServer::DurabilityStats& d) {
    put(out, prefix + "records_logged", static_cast<double>(d.records_logged));
    put(out, prefix + "checkpoints", static_cast<double>(d.checkpoints_written));
    put(out, prefix + "replays_suppressed",
        static_cast<double>(d.replays_suppressed));
    put(out, prefix + "batches_committed",
        static_cast<double>(d.batches_committed));
    put(out, prefix + "recovered_records",
        static_cast<double>(d.recovered_records));
}

/// Peak resident set of this process so far (VmHWM), in MiB.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(4096, '\n');
    }
    return 0.0;
}

void write_file(const fs::path& path, const Bytes& data) {
    std::ofstream file(path, std::ios::binary);
    file.write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(data.size()));
    if (!file) throw std::runtime_error("cannot write " + path.string());
}

int serve(const ServeArgs& args) {
    exec::set_max_threads(kServerWidth);
    Tracer::instance().set_enabled(false);
    CountingVfs vfs(store::PosixVfs::instance());

    std::unique_ptr<DurableServer> single;
    std::unique_ptr<Hosted> single_host;
    std::vector<std::unique_ptr<ShardNodes>> shards;
    std::ostringstream ready;
    const std::int64_t open_start = now_ns();
    if (args.mode == "single") {
        single = std::make_unique<DurableServer>(vfs, args.dir,
                                                 storage_options(args));
        const double recovery_ms =
            static_cast<double>(now_ns() - open_start) / 1e6;
        single_host = std::make_unique<Hosted>(*single, *single);
        ready << "READY " << recovery_ms << ' ' << single_host->server.port();
    } else {
        for (std::size_t s = 0; s < kClusterShards; ++s) {
            shards.push_back(std::make_unique<ShardNodes>(
                vfs, args.dir / ("shard" + std::to_string(s)), args));
        }
        const double recovery_ms =
            static_cast<double>(now_ns() - open_start) / 1e6;
        ready << "READY " << recovery_ms;
        for (const auto& shard : shards) {
            ready << ' ' << shard->hosted.server.port();
        }
    }
    std::cout << ready.str() << std::endl;

    std::vector<Hosted*> hosts;
    if (single_host) hosts.push_back(single_host.get());
    for (const auto& shard : shards) hosts.push_back(&shard->hosted);

    std::uint64_t pumps = 0, pumped_records = 0;
    double pump_ms = 0.0;
    std::string line;
    while (std::getline(std::cin, line)) {
        const std::vector<std::string> words = split_words(line);
        if (words.empty()) continue;
        try {
            std::ostringstream reply;
            reply << "OK";
            const std::string& cmd = words[0];
            if (cmd == "QUIT") {
                break;
            } else if (cmd == "TRACE" && words.size() == 2) {
                Tracer::instance().set_enabled(words[1] == "1");
            } else if (cmd == "SNAPSHOT" && words.size() == 2) {
                if (single) {
                    write_file(words[1] + ".single",
                               single->server().export_snapshot());
                }
                for (std::size_t s = 0; s < shards.size(); ++s) {
                    const std::string base =
                        words[1] + ".shard" + std::to_string(s);
                    write_file(base + ".primary", shards[s]->primary.durable()
                                                      .server()
                                                      .export_snapshot());
                    write_file(base + ".follower",
                               shards[s]->follower.durable()
                                   .server()
                                   .export_snapshot());
                }
            } else if (cmd == "PUMP") {
                for (const auto& shard : shards) {
                    const std::int64_t start = now_ns();
                    const auto result = [&] {
                        const ScopedSpan span("cluster.pump");
                        return shard->replicator.pump();
                    }();
                    pump_ms += static_cast<double>(now_ns() - start) / 1e6;
                    pumped_records += result.records_applied;
                    ++pumps;
                }
            } else if (cmd == "CHECKPOINT") {
                if (single) single->checkpoint_now();
                for (const auto& shard : shards) {
                    shard->primary.durable().checkpoint_now();
                    shard->follower.durable().checkpoint_now();
                }
            } else if (cmd == "CATCHUP") {
                for (const auto& shard : shards) shard->replicator.sync();
            } else if (cmd == "STATS") {
                if (single) {
                    add_durability(reply, "", single->durability());
                } else {
                    DurableServer::DurabilityStats sum;
                    for (const auto& shard : shards) {
                        const auto p = shard->primary.durable().durability();
                        sum.records_logged += p.records_logged;
                        sum.checkpoints_written += p.checkpoints_written;
                        sum.replays_suppressed += p.replays_suppressed;
                        sum.batches_committed += p.batches_committed;
                        sum.recovered_records += p.recovered_records;
                    }
                    add_durability(reply, "", sum);
                }
                std::uint64_t batches = 0, requests = 0;
                std::int64_t read_ns = 0, batch_weighted_ns = 0;
                for (const Hosted* host : hosts) {
                    read_ns += host->reads.busy_ns;
                    batches += host->writes.batches;
                    requests += host->writes.requests;
                    batch_weighted_ns += host->writes.weighted_ns;
                }
                put(reply, "read_ns", static_cast<double>(read_ns));
                put(reply, "batches", static_cast<double>(batches));
                put(reply, "batch_requests", static_cast<double>(requests));
                put(reply, "batch_weighted_ns",
                    static_cast<double>(batch_weighted_ns));
                put(reply, "wal_syncs", static_cast<double>(vfs.wal_syncs));
                put(reply, "wal_bytes", static_cast<double>(vfs.wal_bytes));
                put(reply, "pumps", static_cast<double>(pumps));
                put(reply, "pumped_records",
                    static_cast<double>(pumped_records));
                put(reply, "pump_ms", pump_ms);
                put(reply, "peak_rss_mib", peak_rss_mib());
                for (const auto& [name, t] : Tracer::instance().totals()) {
                    put(reply, "span." + name + ".count",
                        static_cast<double>(t.count));
                    put(reply, "span." + name + ".total_ms", t.total_ms);
                    put(reply, "span." + name + ".self_ms", t.self_ms);
                }
            } else if (cmd == "TRACE_WRITE" && words.size() == 2) {
                Tracer::instance().write(words[1]);
            } else {
                throw std::runtime_error("unknown command");
            }
            std::cout << reply.str() << std::endl;
        } catch (const std::exception& e) {
            std::cout << "ERR " << e.what() << std::endl;
        }
    }
    for (Hosted* host : hosts) host->stop();
    std::cout << "OK" << std::endl;
    return 0;
}

}  // namespace

int serve_main(int argc, char** argv) {
    ServeArgs args;
    for (int i = 0; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--dir") args.dir = value;
        else if (key == "--mode") args.mode = value;
        else if (key == "--checkpoint-bytes") args.checkpoint_bytes = std::stoull(value);
        else {
            std::cerr << "serve: unknown flag " << key << "\n";
            return 2;
        }
    }
    if (args.dir.empty()) {
        std::cerr << "serve: --dir is required\n";
        return 2;
    }
    try {
        return serve(args);
    } catch (const std::exception& e) {
        std::cerr << "serve: " << e.what() << "\n";
        return 1;
    }
}

}  // namespace perfbench
