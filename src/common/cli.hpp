// Command-line flags for the drivers: each program declares its flags once,
// in a table that both parses argv and prints the usage text, and every
// number on a command line goes through one checked parser.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace rcp::cli {

/// Parses all of `token` as an unsigned integer in `base` or a double.
/// Rejects an empty token, a sign, blanks, trailing bytes and a value T
/// cannot hold.
template <class T>
  requires std::unsigned_integral<T> || std::floating_point<T>
[[nodiscard]] std::optional<T> parse_number(std::string_view token,
                                            int base = 10) {
  T v{};
  const char* last = token.data() + token.size();
  std::from_chars_result r{};
  if constexpr (std::floating_point<T>) {
    if (token.starts_with('-')) {
      return std::nullopt;
    }
    r = std::from_chars(token.data(), last, v);
  } else {
    r = std::from_chars(token.data(), last, v, base);
  }
  if (r.ec != std::errc{} || r.ptr != last) {
    return std::nullopt;
  }
  return v;
}

/// Splits `token` at its first `sep` and parses both halves ("4@1",
/// "10:20"); on false neither target is written.
template <class A, class B>
[[nodiscard]] bool parse_pair(std::string_view token, char sep, A& a, B& b) {
  const auto at = token.find(sep);
  const auto first = parse_number<A>(token.substr(0, at));
  const auto second = at == std::string_view::npos
                          ? std::nullopt
                          : parse_number<B>(token.substr(at + 1));
  if (!first || !second) {
    return false;
  }
  a = *first;
  b = *second;
  return true;
}

/// Prints the rejected `token` and "usage: <argv0> <synopsis>" to stderr,
/// then exits 2.
[[noreturn]] void exit_usage(const char* argv0, const char* synopsis,
                             std::string_view token);

/// argv[index] as a number, or `fallback` when there are fewer arguments;
/// a malformed one goes to exit_usage().
template <class T>
[[nodiscard]] T positional(int argc, char** argv, int index, T fallback,
                           const char* synopsis) {
  if (index >= argc) {
    return fallback;
  }
  const auto v = parse_number<T>(argv[index]);
  if (!v) {
    exit_usage(argv[0], synopsis, argv[index]);
  }
  return *v;
}

/// A program's flag table. A flag may repeat: a later value overwrites an
/// earlier one, and a custom flag's handler sees every value. The parser
/// holds references to its targets and must not outlive them.
class Parser {
 public:
  /// Handles one flag value; false rejects it.
  using Apply = std::function<bool(std::string_view)>;

  /// `flag META` into `target`: an unsigned integer of its width, a
  /// double, a string, or an optional of one. A number below `min` is
  /// rejected.
  template <class T>
  Parser& value(const char* flag, const char* meta, T& target,
                std::string help, std::uint64_t min = 0) {
    return custom(flag, meta, std::move(help),
                  [&target, min](std::string_view v) {
                    return assign(v, target, min);
                  });
  }

  /// `flag a|b|c` over `names`, a range of {kind, token, ...} entries that
  /// outlives the parser: stores the kind of the entry named. An optional
  /// `target` also takes `none`, which empties it.
  template <class T, class Names>
  Parser& choice(const char* flag, T& target, const Names& names,
                 std::string help) {
    constexpr bool nullable = requires(T& t) { t.reset(); };
    std::string meta = nullable ? "none|" : "";
    for (const auto& e : names) {
      meta.append(e.token).push_back('|');
    }
    meta.pop_back();
    return custom(flag, std::move(meta), std::move(help),
                  [&target, &names](std::string_view v) {
                    if constexpr (nullable) {
                      if (v == "none") {
                        target.reset();
                        return true;
                      }
                    }
                    for (const auto& e : names) {
                      if (v == e.token) {
                        target = e.kind;
                        return true;
                      }
                    }
                    return false;
                  });
  }

  /// `flag a|b|c` that stores the token itself.
  Parser& choice(const char* flag, std::string& target,
                 std::vector<std::string> tokens, std::string help);

  /// `flag` without a value: stores `value` in `target`.
  Parser& set(const char* flag, bool& target, bool value, std::string help);

  /// `flag META` handled by `apply`, once per occurrence; an empty `meta`
  /// makes a flag without a value.
  Parser& custom(const char* flag, std::string meta, std::string help,
                 Apply apply);

  /// Applies argv[1..argc) in order. On an unknown flag, a missing value
  /// or a rejected value, prints the problem and the usage text to stderr
  /// and returns false; the caller then exits 2.
  [[nodiscard]] bool parse(int argc, char** argv) const;

  /// "usage: <argv0> [flags]", then one line per flag in table order.
  void print_usage(std::ostream& os, const char* argv0) const;

 private:
  struct Flag {
    std::string name;
    std::string meta;  ///< empty: the flag takes no value
    std::string help;
    Apply apply;
  };

  template <class T>
  static bool assign(std::string_view v, T& target, std::uint64_t min) {
    if constexpr (std::is_same_v<T, std::string>) {
      target = v;
    } else if constexpr (requires(T& t) { t.reset(); }) {
      typename T::value_type inner{};
      if (!assign(v, inner, min)) {
        return false;
      }
      target = inner;
    } else {
      const auto parsed = parse_number<T>(v);
      if (!parsed || *parsed < static_cast<T>(min)) {
        return false;
      }
      target = *parsed;
    }
    return true;
  }

  std::vector<Flag> flags_;
};

}  // namespace rcp::cli
