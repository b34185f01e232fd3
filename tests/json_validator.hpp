// A minimal strict JSON validator for tests (no external deps): accepts
// exactly one JSON value, rejects raw control characters inside strings
// and unknown escapes.
#pragma once

#include <cctype>
#include <cstddef>
#include <cstring>
#include <string>

namespace han::test {

class JsonValidator {
 public:
  static bool valid(const std::string& s) {
    JsonValidator v(s);
    v.ws();
    if (!v.value()) return false;
    v.ws();
    return v.pos_ == s.size();
  }

 private:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }
  void ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }
  bool lit(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool string() {
    if (eof() || peek() != '"') return false;
    ++pos_;
    while (!eof() && peek() != '"') {
      const unsigned char c = static_cast<unsigned char>(peek());
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (eof()) return false;
        const char e = peek();
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (eof() || !std::isxdigit(static_cast<unsigned char>(peek())))
              return false;
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    if (eof()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (eof() || peek() != ':') return false;
      ++pos_;
      ws();
      if (!value()) return false;
      ws();
      if (eof()) return false;
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (eof()) return false;
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace han::test
