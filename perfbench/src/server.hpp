// The shipped server as a child process, and what /proc says about it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One reading of the server's /proc entries.
struct ProcSample {
    double user_s = 0.0;  ///< CPU time of every thread, live and exited
    double sys_s = 0.0;
    std::uint64_t voluntary_switches = 0;  ///< summed over live threads
    std::uint64_t threads = 0;
    double hwm_mib = 0.0;  ///< VmHWM: peak resident memory
};

/// `xnfv_cli serve --listen 0 ...` started as a child process.  The
/// constructor returns once the server printed its `listening on` line.
class ServerProcess {
public:
    explicit ServerProcess(const std::vector<std::string>& argv);
    ~ServerProcess();
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] ProcSample sample() const;

    /// SIGTERM, then reads the server's output to its end and reaps it.
    /// True when it drained and exited 0 (SIGKILL after 15 s otherwise).
    bool stop();

private:
    pid_t pid_ = -1;
    int out_ = -1;  ///< read end of the server's stdout
    std::uint16_t port_ = 0;
    std::string output_;
};

}  // namespace perfbench
