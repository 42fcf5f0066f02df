#include "server/protocol.h"

#include "common/str_util.h"

namespace vpbn::server {

namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Consume one whitespace-delimited token starting at \p pos; returns the
/// token and advances \p pos past it (and any leading whitespace).
std::string_view NextToken(std::string_view line, size_t* pos) {
  while (*pos < line.size() && IsSpace(line[*pos])) ++*pos;
  size_t start = *pos;
  while (*pos < line.size() && !IsSpace(line[*pos])) ++*pos;
  return line.substr(start, *pos - start);
}

Status ParseQueryOption(std::string_view token, query::ExecOverrides* out) {
  if (token == "--stats") {
    out->collect_stats = true;
    return Status::OK();
  }
  return Status::ParseError("unknown QUERY option '" + std::string(token) +
                            "'");
}

}  // namespace

Result<Request> ParseRequest(std::string_view line) {
  size_t pos = 0;
  std::string_view verb = NextToken(line, &pos);
  if (verb.empty()) {
    return Status::ParseError("empty request");
  }

  Request req;
  if (verb == "LIST") {
    req.verb = Request::Verb::kList;
    if (!NextToken(line, &pos).empty()) {
      return Status::ParseError("LIST takes no arguments");
    }
    return req;
  }
  if (verb == "STATS") {
    req.verb = Request::Verb::kStats;
    if (!NextToken(line, &pos).empty()) {
      return Status::ParseError("STATS takes no arguments");
    }
    return req;
  }
  if (verb == "SHUTDOWN") {
    req.verb = Request::Verb::kShutdown;
    if (!NextToken(line, &pos).empty()) {
      return Status::ParseError("SHUTDOWN takes no arguments");
    }
    return req;
  }
  if (verb == "RELOAD") {
    req.verb = Request::Verb::kReload;
    std::string_view doc = NextToken(line, &pos);
    if (doc.empty()) {
      return Status::ParseError("RELOAD needs a document name");
    }
    if (!NextToken(line, &pos).empty()) {
      return Status::ParseError("RELOAD takes exactly one argument");
    }
    req.doc = std::string(doc);
    return req;
  }
  if (verb == "QUERY") {
    req.verb = Request::Verb::kQuery;
    std::string_view target = NextToken(line, &pos);
    if (target.empty()) {
      return Status::ParseError("QUERY needs a target and a path");
    }
    // <doc> or <doc>/<view>. Document names cannot contain '/', so the
    // first slash splits (a view name may not contain '/' either).
    size_t slash = target.find('/');
    if (slash != std::string_view::npos) {
      req.doc = std::string(target.substr(0, slash));
      req.view = std::string(target.substr(slash + 1));
      if (req.doc.empty() || req.view.empty() ||
          req.view.find('/') != std::string::npos) {
        return Status::ParseError("bad QUERY target '" + std::string(target) +
                                  "' (want doc or doc/view)");
      }
    } else {
      req.doc = std::string(target);
    }
    // Option tokens until the first token that does not start with "--";
    // that token begins the path, which runs to the end of the line.
    while (true) {
      size_t before = pos;
      std::string_view token = NextToken(line, &pos);
      if (token.empty()) {
        return Status::ParseError("QUERY needs a path");
      }
      if (StartsWith(token, "--")) {
        VPBN_RETURN_NOT_OK(ParseQueryOption(token, &req.overrides));
        continue;
      }
      // Rewind to the token start: the path keeps its internal spacing.
      size_t path_start = before;
      while (path_start < line.size() && IsSpace(line[path_start])) {
        ++path_start;
      }
      std::string_view path = line.substr(path_start);
      while (!path.empty() && IsSpace(path.back())) path.remove_suffix(1);
      req.path = std::string(path);
      return req;
    }
  }
  return Status::ParseError("unknown verb '" + std::string(verb) + "'");
}

std::string ErrorResponse(const Status& status) {
  const query::ErrorCode code = query::ErrorCodeFromStatus(status);
  std::string out = "{\"code\":";
  out += std::to_string(static_cast<int>(code));
  out += ",\"error\":\"";
  out += query::ErrorCodeToString(code);
  out += "\",\"message\":\"";
  out += JsonEscape(status.message());
  out += "\"}";
  return out;
}

std::string JsonField(std::string_view key, std::string_view value) {
  std::string out = "\"";
  out += JsonEscape(key);
  out += "\":\"";
  out += JsonEscape(value);
  out += "\"";
  return out;
}

std::string JsonStringArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += JsonEscape(values[i]);
    out += '"';
  }
  out += ']';
  return out;
}

}  // namespace vpbn::server
