// Helpers shared by the four workloads: server processes, clients,
// latency statistics, result parsing and the per-layer table.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cluster/client.hpp"
#include "mie/client.hpp"
#include "mie/keys.hpp"
#include "net/tcp.hpp"
#include "proc.hpp"
#include "sim/dataset.hpp"
#include "trace.hpp"

namespace perfbench {

constexpr std::size_t kTopK = 10;
/// IVF probe count of the `search` workload's probed searches (of the 32
/// coarse cells a 32-wide vocabulary tree has).
constexpr std::size_t kProbes = 8;
/// Exec widths: each load-generator thread runs its client pipeline
/// serially; the server process gets two.
constexpr std::size_t kClientWidth = 1;
constexpr std::size_t kServerWidth = 2;
constexpr std::size_t kSetupWidth = 4;
/// Shards of the `cluster` workload's server.
constexpr std::size_t kClusterShards = 2;

double ms_between(std::int64_t start_ns, std::int64_t end_ns);

/// Nearest-rank quantile of unsorted samples (0 when empty).
double quantile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);

/// Sum of regular-file sizes under `dir`.
std::uint64_t dir_bytes(const std::filesystem::path& dir);

/// Whole units of fixed work per run: llround(seconds * per_second), >= 1.
std::size_t scaled_count(double seconds, double per_second);

/// Keys shared by every client of one workload run.
struct Identity {
    explicit Identity(std::uint64_t seed);
    mie::RepositoryKey key;
    mie::Bytes user_secret;
};

mie::TrainParams train_params();

/// A full client of one repository with the benchmark's extraction and
/// training parameters (the paper-figure benches' dense pyramid).
std::unique_ptr<mie::MieClient> make_client(mie::net::Transport& link,
                                            const std::string& repo,
                                            const Identity& identity);

/// Server arguments for `perfbench serve`.
std::vector<std::string> serve_args(const std::filesystem::path& dir,
                                    const std::string& mode,
                                    std::uint64_t checkpoint_bytes);

std::uint16_t ready_port(const ServerProcess& server, std::size_t index);

/// Runs fn(i) on `n` threads and rethrows the first failure.
void run_threads(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Work tally of search responses (MieServer::SearchWork tail).
struct SearchWorkTally {
    std::uint64_t searches = 0;
    std::uint64_t postings = 0;
    std::uint64_t query_descriptors = 0;
    std::uint64_t kept = 0;
    void add(const mie::MieServer::SearchWork& work);
    void merge(const SearchWorkTally& other);
};

/// Reads the SearchWork tail of a kSearch response.
mie::MieServer::SearchWork search_work_of(mie::BytesView response);

/// Counting transport that also keeps the last request it forwarded, so
/// a workload can re-send an enveloped request as a client retry would.
class ClientLink final : public mie::net::Transport {
public:
    ClientLink(std::uint16_t port);
    mie::Bytes call(mie::BytesView request) override;
    /// Sends the previous request again, bypassing the counters; returns
    /// the response.
    mie::Bytes resend_last();
    const mie::Bytes& last_request() const { return last_; }
    const CountingTransport& counted() const { return counted_; }
    /// SearchWork of every kSearch response since the last reset().
    const SearchWorkTally& work() const { return work_; }
    void reset();

private:
    mie::net::TcpTransport tcp_;
    CountingTransport counted_;
    mie::Bytes last_;
    SearchWorkTally work_;
};

/// Per-thread client-side layer tally (traced phase only).
struct ClientTally {
    std::uint64_t pipeline_ops = 0;  ///< ops that ran extract + encode
    double extract_ms = 0.0;
    double encrypt_ms = 0.0;  ///< DPE encode + AES seal (client meter)
    std::uint64_t sealed = 0;
    double seal_ms = 0.0;  ///< separately timed AesCtr::seal
    std::uint64_t opened = 0;
    double open_ms = 0.0;
    double open_in_op_ms = 0.0;  ///< decrypts timed inside an op span
    std::uint64_t bytes_up = 0;
    std::uint64_t bytes_down = 0;
    SearchWorkTally work;
    void merge(const ClientTally& other);
};

/// Times AesCtr::seal of `object` under its data key, as MieClient::update
/// does, outside any op span (dpe.encode_ms = client Encrypt - this).
double timed_seal_ms(const mie::DataKeyring& keyring,
                     const mie::sim::MultimodalObject& object);

/// Decrypts a result blob with the owner's keyring (the same steps as
/// MieClient::decrypt_result) and returns the re-encoded plaintext.
mie::Bytes open_blob(const mie::DataKeyring& keyring, std::uint64_t id,
                     mie::BytesView blob, ClientTally* tally);

/// Compares decrypted results with the generator's objects: `opened`
/// holds (id, re-encoded plaintext).
void check_decrypted(
    Checker& checker,
    std::vector<std::pair<std::uint64_t, mie::Bytes>> opened,
    const std::map<std::uint64_t, mie::sim::MultimodalObject>& truth);

/// Lists the object ids of a repository over the wire (kListObjects).
std::vector<std::uint64_t> list_ids(mie::net::Transport& link,
                                    const std::string& repo);

/// Average descriptor count of `objects` under the client's extraction.
double descriptors_per_object(
    const std::vector<mie::sim::MultimodalObject>& objects);

/// Restart measurement: `first_query` sends the first query to a freshly
/// started server and returns once it is answered.
struct RestartFigures {
    double restart_s = 0.0;
    double recovery_ms = 0.0;
    double first_query_ms = 0.0;
};
RestartFigures measure_restart(
    const std::vector<std::string>& args, std::size_t times,
    const std::function<void(ServerProcess&)>& first_query,
    const std::function<void(ServerProcess&)>& on_first);

/// Server-side deltas between two STATS readings.
struct ServerDelta {
    std::map<std::string, double> before, after;
    double d(const std::string& key) const;
};

/// Inputs of the per-layer metrics (0 where the workload runs no such work).
struct LayerInputs {
    ClientTally client;
    ServerDelta server;
    std::uint64_t ops = 0;  ///< traced-phase operations
    double untraced_op_ms = 0.0;  ///< mean op latency, untraced phase
    double traced_op_ms = 0.0;    ///< mean op latency, traced phase
    /// Load-process span totals; "op.*" spans are whole operations.
    std::map<std::string, SpanTotals> client_spans;
    double descriptors_per_object = 0.0;
    double checkpoints = 0.0;  ///< whole timed phase
    RestartFigures restart;
};
/// Fills every per-layer metric except the cluster ones, which only the
/// `cluster` workload measures.
void fill_layers(const LayerInputs& in, Result& result);

}  // namespace perfbench
