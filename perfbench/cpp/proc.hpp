// The server stack runs in a child process of its own (the same binary,
// `perfbench serve ...`), so its exec pool, heap and resident memory are
// not shared with the load generator. The parent talks to it over the
// child's stdin/stdout, one line per command and one line per reply.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
public:
    /// Starts `perfbench serve <args>` and waits for its READY line.
    explicit ServerProcess(const std::vector<std::string>& args);
    /// Closes the child's stdin and waits for it (kills it if it lingers).
    ~ServerProcess();
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    /// Words of the READY line after "READY".
    const std::vector<std::string>& ready() const { return ready_; }

    /// Sends one command line; returns the reply words after "OK".
    /// Throws std::runtime_error on an "ERR" reply or a dead child.
    std::vector<std::string> command(const std::string& line);

    /// STATS as a key -> value map.
    std::map<std::string, double> stats();

    /// Stops the server cleanly and reaps it. Returns its peak resident
    /// set in MiB (from wait4's rusage).
    double quit();

private:
    std::string read_line();
    void reap(bool force);

    pid_t pid_ = -1;
    int to_child_ = -1;
    int from_child_ = -1;
    std::string buffered_;
    std::vector<std::string> ready_;
    double peak_rss_mib_ = 0.0;
};

/// Splits on single spaces.
std::vector<std::string> split_words(const std::string& line);

}  // namespace perfbench
