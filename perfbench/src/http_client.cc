#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>

namespace perfbench {
namespace {

bool StartsWithNoCase(std::string_view text, std::string_view prefix) {
  if (text.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpClient::Connect(const std::string& host, int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
  return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

std::string HttpClient::PostRequest(std::string_view target,
                                    std::string_view body) {
  std::string request = "POST ";
  request.append(target);
  request += " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json";
  request += "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request.append(body);
  return request;
}

HttpReply HttpClient::Post(std::string_view target, std::string_view body) {
  return Exchange(PostRequest(target, body));
}

HttpReply HttpClient::Get(std::string_view target) {
  std::string request = "GET ";
  request.append(target);
  request += " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
  return Exchange(request);
}

HttpReply HttpClient::Exchange(const std::string& request) {
  HttpReply reply;
  if (!Send(request)) return reply;
  ReadState state = ReadState::kPending;
  while (state == ReadState::kPending) state = Receive(&reply);
  return reply;
}

bool HttpClient::Send(const std::string& request) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

HttpClient::ReadState HttpClient::Receive(HttpReply* reply) {
  const ReadState buffered = Frame(reply);
  if (buffered != ReadState::kPending) return buffered;
  if (fd_ < 0) return ReadState::kError;
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return ReadState::kError;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return Frame(reply);
}

HttpClient::ReadState HttpClient::Frame(HttpReply* reply) {
  const std::size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) return ReadState::kPending;
  // Status line: "HTTP/1.1 <code> <reason>".
  const std::string_view head(buffer_.data(), header_end);
  if (!StartsWithNoCase(head, "HTTP/1.") || head.size() < 12) {
    return ReadState::kError;
  }
  const int status = std::atoi(std::string(head.substr(9, 3)).c_str());
  std::size_t content_length = 0;
  bool have_length = false;
  std::size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos) {
    line_start += 2;
    const std::size_t line_end = head.find("\r\n", line_start);
    const std::string_view line = head.substr(
        line_start, line_end == std::string_view::npos ? std::string_view::npos
                                                       : line_end - line_start);
    if (StartsWithNoCase(line, "content-length:")) {
      content_length = std::strtoull(std::string(line.substr(15)).c_str(),
                                     nullptr, 10);
      have_length = true;
    }
    line_start = line_end;
  }
  if (!have_length) return ReadState::kError;
  const std::size_t body_start = header_end + 4;
  if (buffer_.size() - body_start < content_length) return ReadState::kPending;
  reply->transport_ok = true;
  reply->status = status;
  reply->body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  return ReadState::kReply;
}

}  // namespace perfbench
