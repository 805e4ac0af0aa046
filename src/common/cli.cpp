#include "common/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

namespace rcp::cli {

void exit_usage(const char* argv0, const char* synopsis,
                std::string_view token) {
  std::cerr << "error: bad argument '" << token << "'\nusage: " << argv0
            << ' ' << synopsis << '\n';
  std::exit(2);
}

Parser& Parser::custom(const char* flag, std::string meta, std::string help,
                       Apply apply) {
  flags_.push_back({flag, std::move(meta), std::move(help), std::move(apply)});
  return *this;
}

Parser& Parser::choice(const char* flag, std::string& target,
                       std::vector<std::string> tokens, std::string help) {
  std::string meta;
  for (const std::string& t : tokens) {
    meta.append(t).push_back('|');
  }
  meta.pop_back();
  return custom(flag, std::move(meta), std::move(help),
                [&target, tokens = std::move(tokens)](std::string_view v) {
                  const bool known =
                      std::ranges::find(tokens, v) != tokens.end();
                  if (known) {
                    target = v;
                  }
                  return known;
                });
}

Parser& Parser::set(const char* flag, bool& target, bool value,
                    std::string help) {
  return custom(flag, "", std::move(help), [&target, value](std::string_view) {
    target = value;
    return true;
  });
}

bool Parser::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag = std::ranges::find(flags_, arg, &Flag::name);
    std::string problem;
    if (flag == flags_.end()) {
      problem = "unknown flag '" + std::string(arg) + "'";
    } else if (flag->meta.empty()) {
      flag->apply({});
    } else if (i + 1 == argc) {
      problem = flag->name + " needs a value (" + flag->meta + ")";
    } else if (!flag->apply(argv[++i])) {
      problem = "bad value '" + std::string(argv[i]) + "' for " + flag->name;
    }
    if (!problem.empty()) {
      std::cerr << "error: " << problem << "\n";
      print_usage(std::cerr, argv[0]);
      return false;
    }
  }
  return true;
}

void Parser::print_usage(std::ostream& os, const char* argv0) const {
  // Help starts in a fixed column, or on the next line after a long flag.
  constexpr std::size_t kColumn = 26;
  os << "usage: " << argv0 << " [flags]\n";
  for (const Flag& f : flags_) {
    const std::string left =
        "  " + f.name + (f.meta.empty() ? "" : " " + f.meta);
    os << left
       << (left.size() < kColumn - 1
               ? std::string(kColumn - left.size(), ' ')
               : "\n" + std::string(kColumn, ' '))
       << f.help << '\n';
  }
}

}  // namespace rcp::cli
