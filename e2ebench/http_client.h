#ifndef CHURNLAB_E2EBENCH_HTTP_CLIENT_H_
#define CHURNLAB_E2EBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace churnlab {
namespace e2e {

/// One blocking keep-alive HTTP/1.1 connection to the loopback server.
/// Requests are sent as complete pre-rendered wire bytes, so the client
/// does no encoding work inside a timed loop; responses are framed by
/// Content-Length (the only framing the server emits). Requests may be
/// pipelined: Send several, then take their responses in order.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:`port` with TCP_NODELAY and 30 s send/receive
  /// timeouts, so a stalled server fails the run instead of hanging it.
  Status Connect(uint16_t port);

  /// Sends `wire` and reads its response. `*body` views the response body
  /// and stays valid until the next call.
  Status RoundTrip(std::string_view wire, int* status_code,
                   std::string_view* body);

  Status Send(std::string_view wire);
  /// Takes the next complete buffered response, if any; `*body` stays
  /// valid until the next call.
  Status TakeResponse(bool* taken, int* status_code, std::string_view* body);
  /// Blocks for at least one more byte from the server.
  Status ReadMore();

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
  /// Bytes of `buffer_` belonging to responses already taken.
  size_t consumed_ = 0;
};

/// The value of the unsigned integer field `"key":` in a flat JSON
/// response, or -1 when absent.
int64_t JsonUintField(std::string_view json, std::string_view key);

}  // namespace e2e
}  // namespace churnlab

#endif  // CHURNLAB_E2EBENCH_HTTP_CLIENT_H_
