#ifndef JURYOPT_PERFBENCH_HTTP_CLIENT_H_
#define JURYOPT_PERFBENCH_HTTP_CLIENT_H_

#include <string>
#include <string_view>

namespace perfbench {

/// One HTTP exchange as the client saw it. `transport_ok` is false when the
/// connection failed or the reply could not be framed; `status` is the code
/// from the status line (0 when there was none).
struct HttpReply {
  bool transport_ok = false;
  int status = 0;
  std::string body;
};

/// Keep-alive HTTP/1.1 client over one loopback connection, one request in
/// flight at a time (the closed loop). Replies are framed by their status
/// line and `Content-Length` header, matched case-insensitively.
///
/// `Post`/`Get` are blocking round trips. The load loop instead multiplexes
/// several clients on one thread: `Send` a request, then call `Receive`
/// each time `fd()` polls readable until it stops returning `kPending`.
class HttpClient {
 public:
  enum class ReadState { kPending, kReply, kError };

  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(const std::string& host, int port);
  int fd() const { return fd_; }

  HttpReply Post(std::string_view target, std::string_view body);
  HttpReply Get(std::string_view target);

  static std::string PostRequest(std::string_view target,
                                 std::string_view body);
  /// Writes the whole request (blocking). False on a transport error.
  bool Send(const std::string& request);
  /// One `recv`, then frames a reply into `*reply` if it is complete.
  ReadState Receive(HttpReply* reply);

 private:
  HttpReply Exchange(const std::string& request);
  /// Frames one reply from the buffered bytes: kReply (consumed),
  /// kPending (need more bytes) or kError (malformed).
  ReadState Frame(HttpReply* reply);

  int fd_ = -1;
  std::string buffer_;  // received bytes not yet framed
};

}  // namespace perfbench

#endif  // JURYOPT_PERFBENCH_HTTP_CLIENT_H_
