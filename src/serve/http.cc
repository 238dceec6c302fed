#include "serve/http.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace jury::serve {

namespace {

/// Lowercases ASCII in place (header names only — values are preserved).
void AsciiLower(std::string* s) {
  for (char& c : *s) {
    c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
}

/// Strips optional whitespace around a header value.
std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

void HttpParser::FailWith(int status, std::string reason) {
  state_ = State::kError;
  error_status_ = status;
  error_reason_ = std::move(reason);
}

std::size_t HttpParser::Feed(std::string_view data) {
  std::size_t consumed = 0;
  while (consumed < data.size() && state_ != State::kComplete &&
         state_ != State::kError) {
    if (state_ == State::kHeaders) {
      // Buffer up to the header terminator (CRLFCRLF, LF-tolerant).
      const std::size_t take =
          std::min(data.size() - consumed,
                   limits_.max_header_bytes + 1 - buffer_.size());
      buffer_.append(data.substr(consumed, take));
      consumed += take;
      const std::size_t crlf = buffer_.find("\r\n\r\n");
      const std::size_t lf = buffer_.find("\n\n");
      std::size_t header_end = std::string::npos;
      std::size_t terminator = 0;
      if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
        header_end = crlf;
        terminator = 4;
      } else if (lf != std::string::npos) {
        header_end = lf;
        terminator = 2;
      }
      if (header_end == std::string::npos) {
        if (buffer_.size() > limits_.max_header_bytes) {
          FailWith(431, "header block exceeds limit");
        }
        continue;
      }
      // Leftover bytes after the terminator are body bytes.
      std::string rest = buffer_.substr(header_end + terminator);
      buffer_.resize(header_end);
      if (!ParseHeaderBlock()) continue;  // state is kError
      if (body_expected_ > limits_.max_body_bytes) {
        FailWith(413, "declared body exceeds limit");
        continue;
      }
      state_ = State::kBody;
      buffer_.clear();
      // Re-feed the body bytes we over-read, then fall through to the
      // regular body path for the rest of `data`.
      if (rest.size() > body_expected_) {
        // Pipelined bytes beyond this request's body stay unconsumed in
        // the connection buffer; give back the overshoot.
        consumed -= rest.size() - body_expected_;
        rest.resize(body_expected_);
      }
      request_.body = std::move(rest);
      if (request_.body.size() >= body_expected_) state_ = State::kComplete;
      continue;
    }
    // kBody
    const std::size_t need = body_expected_ - request_.body.size();
    const std::size_t take = std::min(need, data.size() - consumed);
    request_.body.append(data.substr(consumed, take));
    consumed += take;
    if (request_.body.size() >= body_expected_) state_ = State::kComplete;
  }
  return consumed;
}

bool HttpParser::ParseHeaderBlock() {
  // buffer_ holds the request line + headers, without the terminator.
  std::string_view block = buffer_;
  const std::size_t line_end = block.find('\n');
  std::string_view request_line =
      line_end == std::string_view::npos ? block : block.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1 || sp2 + 1 >= request_line.size()) {
    FailWith(400, "malformed request line");
    return false;
  }
  request_.method = std::string(request_line.substr(0, sp1));
  request_.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request_.version = std::string(request_line.substr(sp2 + 1));
  if (request_.version.rfind("HTTP/", 0) != 0) {
    FailWith(400, "malformed HTTP version");
    return false;
  }

  std::size_t pos =
      line_end == std::string_view::npos ? block.size() : line_end + 1;
  while (pos < block.size()) {
    std::size_t next = block.find('\n', pos);
    std::string_view line = next == std::string_view::npos
                                ? block.substr(pos)
                                : block.substr(pos, next - pos);
    pos = next == std::string_view::npos ? block.size() : next + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      FailWith(400, "malformed header line");
      return false;
    }
    std::string name(line.substr(0, colon));
    AsciiLower(&name);
    if (name.find(' ') != std::string::npos ||
        name.find('\t') != std::string::npos) {
      FailWith(400, "whitespace in header name");
      return false;
    }
    // The map keeps the first of two values; a second, conflicting body
    // length would leave bytes to be parsed as the next request.
    if (name == "content-length" && request_.headers.count(name) > 0) {
      FailWith(400, "repeated Content-Length");
      return false;
    }
    request_.headers.emplace(std::move(name),
                             std::string(TrimOws(line.substr(colon + 1))));
  }

  body_expected_ = 0;
  const auto it = request_.headers.find("content-length");
  if (it != request_.headers.end()) {
    const std::string& value = it->second;
    if (value.empty() ||
        !std::all_of(value.begin(), value.end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        }) ||
        value.size() > 12) {
      FailWith(400, "malformed Content-Length");
      return false;
    }
    body_expected_ = static_cast<std::size_t>(std::stoull(value));
  }
  if (request_.headers.count("transfer-encoding") > 0) {
    FailWith(400, "chunked transfer encoding unsupported");
    return false;
  }
  return true;
}

void HttpParser::Reset() {
  state_ = State::kHeaders;
  buffer_.clear();
  body_expected_ = 0;
  request_ = HttpRequest{};
  error_status_ = 400;
  error_reason_.clear();
}

std::string_view HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string FormatHttpResponse(int status, std::string_view reason,
                               std::string_view body, bool keep_alive) {
  std::string response;
  response.reserve(body.size() + 128);
  response.append("HTTP/1.1 ");
  response.append(std::to_string(status));
  response.push_back(' ');
  response.append(reason.empty() ? HttpReasonPhrase(status) : reason);
  response.append("\r\nContent-Type: application/json\r\nContent-Length: ");
  response.append(std::to_string(body.size()));
  response.append(keep_alive ? "\r\nConnection: keep-alive"
                             : "\r\nConnection: close");
  response.append("\r\n\r\n");
  response.append(body);
  return response;
}

}  // namespace jury::serve
