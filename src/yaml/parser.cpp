#include "src/yaml/parser.hpp"

#include <cctype>
#include <optional>
#include <vector>

#include "src/support/error.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::yaml {

namespace {

using support::trim;

struct Line {
  int number = 0;       // 1-based source line
  int indent = 0;       // leading spaces
  std::string content;  // text after indent, comments stripped
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw YamlError("yaml:" + std::to_string(line) + ": " + message);
}

/// Strip a trailing comment that is not inside quotes. A '#' only starts a
/// comment at line start or after whitespace (YAML rule).
std::string strip_comment(std::string_view s) {
  char quote = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (quote) {
      if (quote == '"' && c == '\\') {
        ++i;  // escaped char inside a double-quoted string
        continue;
      }
      if (c == quote) quote = 0;
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
    } else if (c == '#' && (i == 0 || s[i - 1] == ' ' || s[i - 1] == '\t')) {
      return std::string(s.substr(0, i));
    }
  }
  return std::string(s);
}

std::vector<Line> logical_lines(std::string_view text) {
  std::vector<Line> lines;
  int number = 0;
  for (const auto& raw : support::split(text, '\n')) {
    ++number;
    std::string no_comment = strip_comment(raw);
    std::size_t indent = 0;
    while (indent < no_comment.size() && no_comment[indent] == ' ') ++indent;
    if (indent < no_comment.size() && no_comment[indent] == '\t') {
      fail(number, "tabs are not allowed for indentation");
    }
    std::string content = trim(no_comment);
    if (content.empty()) continue;
    if (content == "---") continue;  // single-document marker, ignore
    if (content[0] == '&' || content[0] == '*') {
      fail(number, "anchors/aliases are not supported");
    }
    lines.push_back({number, static_cast<int>(indent), std::move(content)});
  }
  return lines;
}

class Parser {
public:
  explicit Parser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  Node parse_document() {
    if (lines_.empty()) return Node{};
    Node result = parse_block(lines_.front().indent);
    if (pos_ != lines_.size()) {
      fail(lines_[pos_].number, "unexpected content after document");
    }
    return result;
  }

private:
  [[nodiscard]] bool done() const { return pos_ >= lines_.size(); }
  [[nodiscard]] const Line& peek() const { return lines_[pos_]; }

  /// Parse the block starting at the current line, which must be indented
  /// exactly `indent`.
  Node parse_block(int indent) {
    const Line& first = peek();
    if (first.indent != indent) {
      fail(first.number, "unexpected indentation");
    }
    if (is_sequence_item(first.content)) return parse_sequence(indent);
    auto key_split = split_key(first.content);
    if (key_split) return parse_mapping(indent);
    // A plain scalar document/value.
    Node scalar(parse_scalar(first.content, first.number));
    ++pos_;
    return scalar;
  }

  static bool is_sequence_item(const std::string& content) {
    return content == "-" || support::starts_with(content, "- ");
  }

  /// Split "key: value" / "key:" respecting quoted keys. Returns
  /// {key, rest-after-colon} or nullopt if the line is not a mapping entry.
  static std::optional<std::pair<std::string, std::string>> split_key(
      const std::string& content) {
    std::size_t i = 0;
    if (!content.empty() && (content[0] == '\'' || content[0] == '"')) {
      const char quote = content[0];
      // Find the closing quote respecting the quote style's escapes (''
      // doubling in single quotes, backslash in double quotes) so quoted
      // keys containing quote characters survive.
      i = 1;
      while (i < content.size()) {
        char c = content[i];
        if (quote == '\'' && c == '\'') {
          if (i + 1 < content.size() && content[i + 1] == '\'') {
            i += 2;
            continue;
          }
          break;  // closing quote
        }
        if (quote == '"' && c == '"') break;
        if (quote == '"' && c == '\\') {
          i += 2;
          continue;
        }
        ++i;
      }
      if (i >= content.size()) return std::nullopt;  // unterminated quote
      if (i + 1 >= content.size() || content[i + 1] != ':') {
        return std::nullopt;
      }
      // Decode through parse_quoted so escapes in the key text ("\n",
      // '' doubling) become the characters they stand for.
      std::size_t j = 0;
      std::string key = parse_quoted(content.substr(0, i + 1), j, 0);
      std::string rest =
          i + 2 < content.size() ? trim(content.substr(i + 2)) : "";
      return {{key, rest}};
    }
    for (; i < content.size(); ++i) {
      char c = content[i];
      if (c == ':' &&
          (i + 1 == content.size() || content[i + 1] == ' ')) {
        std::string key = trim(content.substr(0, i));
        if (key.empty()) return std::nullopt;
        std::string rest =
            i + 1 < content.size() ? trim(content.substr(i + 1)) : "";
        return {{key, rest}};
      }
      // Keys never contain these; bail out so URLs ("http://x") and specs
      // are treated as scalars.
      if (c == ' ' || c == '\'' || c == '"' || c == '[') return std::nullopt;
      // A line opening with '{' is a flow mapping, not a key (but braces
      // may appear inside keys, e.g. ramble experiment templates).
      if (c == '{' && i == 0) return std::nullopt;
    }
    return std::nullopt;
  }

  Node parse_sequence(int indent) {
    Node seq = Node::make_sequence();
    while (!done() && peek().indent == indent &&
           is_sequence_item(peek().content)) {
      Line line = peek();
      std::string rest =
          line.content == "-" ? "" : trim(line.content.substr(2));
      // Indent of content inside this item ("- " is two columns wide).
      int item_indent = indent + 2;
      if (rest.empty()) {
        ++pos_;
        if (!done() && peek().indent > indent) {
          seq.push_back(parse_block(peek().indent));
        } else {
          seq.push_back(Node{});
        }
        continue;
      }
      auto key_split = split_key(rest);
      if (key_split) {
        // "- key: value" — a mapping starting inline; subsequent keys sit
        // at item_indent. Rewrite the current line and parse a mapping.
        lines_[pos_].indent = item_indent;
        lines_[pos_].content = rest;
        seq.push_back(parse_mapping(item_indent));
      } else {
        seq.push_back(parse_scalar(rest, line.number));
        ++pos_;
      }
    }
    return seq;
  }

  Node parse_mapping(int indent) {
    Node map = Node::make_mapping();
    while (!done() && peek().indent == indent &&
           !is_sequence_item(peek().content)) {
      Line line = peek();
      auto key_split = split_key(line.content);
      if (!key_split) fail(line.number, "expected 'key: value'");
      auto& [key, rest] = *key_split;
      if (map.has(key)) fail(line.number, "duplicate key '" + key + "'");
      if (!rest.empty()) {
        map[key] = parse_scalar(rest, line.number);
        ++pos_;
        continue;
      }
      ++pos_;
      if (!done() && peek().indent > indent) {
        map[key] = parse_block(peek().indent);
      } else if (!done() && peek().indent == indent &&
                 is_sequence_item(peek().content)) {
        // Sequences are commonly indented at the same level as their key.
        map[key] = parse_sequence(indent);
      } else {
        map[key] = Node{};
      }
    }
    return map;
  }

  /// Parse an inline value: quoted scalar, flow collection (sequences
  /// and mappings, so one-line JSON documents parse), or plain scalar.
  Node parse_scalar(const std::string& text, int line_number) {
    if (text.empty()) return Node{};
    if (text[0] == '[' || text[0] == '{') {
      std::size_t i = 0;
      Node node = parse_flow_value(text, i, line_number);
      skip_flow_ws(text, i);
      if (i != text.size()) {
        fail(line_number, "unexpected content after flow collection");
      }
      return node;
    }
    if (text[0] == '|' || text[0] == '>') {
      fail(line_number, "block scalars are not supported");
    }
    return Node(unquote(text, line_number));
  }

  static void skip_flow_ws(const std::string& text, std::size_t& i) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  }

  /// Flow collections recurse once per nesting level; beyond this depth
  /// untrusted input is refused instead of overflowing the stack.
  static constexpr int kMaxFlowDepth = 512;

  /// One value inside a flow context: nested collection, quoted scalar,
  /// or plain scalar running up to the next ','/']'/'}'. `depth` counts
  /// the enclosing flow collections.
  Node parse_flow_value(const std::string& text, std::size_t& i,
                        int line_number, int depth = 0) {
    skip_flow_ws(text, i);
    if (i >= text.size()) fail(line_number, "unexpected end of flow value");
    char c = text[i];
    if ((c == '[' || c == '{') && depth >= kMaxFlowDepth) {
      fail(line_number, "flow collections nested deeper than " +
                            std::to_string(kMaxFlowDepth) + " levels");
    }
    if (c == '[') return parse_flow_sequence(text, i, line_number, depth);
    if (c == '{') return parse_flow_mapping(text, i, line_number, depth);
    if (c == '\'' || c == '"') {
      return Node(parse_quoted(text, i, line_number));
    }
    std::size_t start = i;
    while (i < text.size() && text[i] != ',' && text[i] != ']' &&
           text[i] != '}') {
      ++i;
    }
    std::string scalar = trim(text.substr(start, i - start));
    if (scalar.empty()) fail(line_number, "empty flow scalar");
    return Node(std::move(scalar));
  }

  Node parse_flow_sequence(const std::string& text, std::size_t& i,
                           int line_number, int depth) {
    ++i;  // consume '['
    Node seq = Node::make_sequence();
    skip_flow_ws(text, i);
    if (i < text.size() && text[i] == ']') {
      ++i;
      return seq;
    }
    for (;;) {
      seq.push_back(parse_flow_value(text, i, line_number, depth + 1));
      skip_flow_ws(text, i);
      if (i >= text.size()) fail(line_number, "unterminated flow sequence");
      if (text[i] == ',') {
        ++i;
        continue;
      }
      if (text[i] == ']') {
        ++i;
        return seq;
      }
      fail(line_number, "expected ',' or ']' in flow sequence");
    }
  }

  Node parse_flow_mapping(const std::string& text, std::size_t& i,
                          int line_number, int depth) {
    ++i;  // consume '{'
    Node map = Node::make_mapping();
    skip_flow_ws(text, i);
    if (i < text.size() && text[i] == '}') {
      ++i;
      return map;
    }
    for (;;) {
      skip_flow_ws(text, i);
      if (i >= text.size()) fail(line_number, "unterminated flow mapping");
      std::string key;
      if (text[i] == '\'' || text[i] == '"') {
        key = parse_quoted(text, i, line_number);
      } else {
        std::size_t start = i;
        while (i < text.size() && text[i] != ':' && text[i] != ',' &&
               text[i] != '}') {
          ++i;
        }
        key = trim(text.substr(start, i - start));
      }
      skip_flow_ws(text, i);
      if (i >= text.size() || text[i] != ':') {
        fail(line_number, "expected ':' after flow mapping key");
      }
      ++i;  // consume ':'
      if (map.has(key)) {
        fail(line_number, "duplicate key '" + key + "'");
      }
      skip_flow_ws(text, i);
      if (i < text.size() && (text[i] == ',' || text[i] == '}')) {
        map[key] = Node{};  // empty value
      } else {
        map[key] = parse_flow_value(text, i, line_number, depth + 1);
      }
      skip_flow_ws(text, i);
      if (i >= text.size()) fail(line_number, "unterminated flow mapping");
      if (text[i] == ',') {
        ++i;
        continue;
      }
      if (text[i] == '}') {
        ++i;
        return map;
      }
      fail(line_number, "expected ',' or '}' in flow mapping");
    }
  }

  /// A quoted scalar starting at text[i]; advances i past the closing
  /// quote. Single quotes escape via ''; double quotes via backslash.
  static std::string parse_quoted(const std::string& text, std::size_t& i,
                                  int line_number) {
    const char quote = text[i++];
    std::string out;
    while (i < text.size()) {
      char c = text[i];
      if (quote == '\'') {
        if (c == '\'') {
          if (i + 1 < text.size() && text[i + 1] == '\'') {
            out.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          return out;
        }
        out.push_back(c);
        ++i;
        continue;
      }
      if (c == '"') {
        ++i;
        return out;
      }
      if (c == '\\') {
        decode_escape(text, i, line_number, out);
        continue;
      }
      out.push_back(c);
      ++i;
    }
    fail(line_number, "unterminated quoted scalar");
  }

  /// Decode the backslash escape at text[i] (JSON / double-quoted YAML),
  /// appending to `out` and advancing i. Unknown escapes are preserved
  /// verbatim (backslash included) for backward compatibility.
  static void decode_escape(const std::string& text, std::size_t& i,
                            int line_number, std::string& out) {
    if (i + 1 >= text.size()) fail(line_number, "dangling escape");
    char e = text[i + 1];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        if (i + 6 > text.size()) fail(line_number, "truncated \\u escape");
        unsigned code = 0;
        for (int k = 2; k < 6; ++k) {
          char h = text[i + static_cast<std::size_t>(k)];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail(line_number, "bad \\u escape digit");
          }
        }
        // UTF-8 encode (BMP only; surrogate pairs unsupported).
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        i += 6;
        return;
      }
      default:
        out.push_back('\\');
        out.push_back(e);
    }
    i += 2;
  }

  static std::string unquote(const std::string& text, int line_number) {
    if (text.size() >= 2 &&
        (text.front() == '\'' || text.front() == '"') &&
        text.back() == text.front()) {
      std::size_t i = 0;
      std::string out = parse_quoted(text, i, line_number);
      if (i != text.size()) {
        fail(line_number, "unexpected content after quoted scalar");
      }
      return out;
    }
    if (!text.empty() && (text.front() == '\'' || text.front() == '"')) {
      fail(line_number, "unterminated quoted scalar");
    }
    return text;
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
};

}  // namespace

Node parse(std::string_view text) {
  return Parser(logical_lines(text)).parse_document();
}

Node parse_file(const std::string& path) {
  return parse(support::read_file(path));
}

}  // namespace benchpark::yaml
