// Interactive front-end for the Section 4 performance analysis.
//
//   $ ./markov_analysis [n]
//
// For a given n (divisible by 6; default 60) prints the fail-stop chain's
// expected phases from every starting state, the collapsed bound, and the
// Section 4.2 malicious-chain numbers for matching parameters.
#include <cmath>
#include <iostream>

#include "analysis/collapsed_chain.hpp"
#include "analysis/failstop_chain.hpp"
#include "analysis/malicious_chain.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace rcp;
  using analysis::CollapsedChain;

  const auto n = cli::positional<unsigned>(argc, argv, 1, 60, "[n]");
  if (n < 6 || n % 6 != 0) {
    std::cerr << "n must be >= 6 and divisible by 6 (got " << n << ")\n";
    return 2;
  }

  const analysis::FailStopChain chain(n);
  std::cout << "Section 4.1 fail-stop chain, n = " << n
            << " (k = n/3 = " << n / 3 << "):\n\n";
  Table table({"state (ones)", "w_i", "E[phases]"});
  const unsigned stride = n / 12 == 0 ? 1 : n / 12;
  for (unsigned i = 0; i <= n; i += stride) {
    table.row()
        .cell(static_cast<std::uint64_t>(i))
        .cell(chain.w(i), 5)
        .cell(chain.expected_phases_from(i), 4);
  }
  table.print(std::cout);

  const double l = CollapsedChain::kPaperL;
  std::cout << "\nbalanced-state expectation : "
            << format_double(chain.expected_phases_from_balanced(), 4)
            << "\ncollapsed bound (eq. 13)   : "
            << format_double(
                   CollapsedChain::expected_absorption_closed_form(n, l), 4)
            << "\npaper's headline           : < 7\n";

  // A matching Section 4.2 instance if one exists: k = sqrt(n)/2 rounded to
  // keep n - k even, capped at n/5.
  unsigned k = static_cast<unsigned>(std::sqrt(static_cast<double>(n)) / 2.0);
  if ((n - k) % 2 != 0 && k > 0) {
    --k;
  }
  if (k >= 1 && 5 * k <= n && n >= 3 * k + 2) {
    const analysis::MaliciousChain mal(n, k);
    std::cout << "\nSection 4.2 malicious chain with k = " << k
              << " balancing adversaries (l = "
              << format_double(mal.effective_l(), 2) << "):\n"
              << "  E[phases from balanced] = "
              << format_double(mal.expected_phases_from_balanced(), 4)
              << "\n  paper bound 1/(2*Phi(l)) = "
              << format_double(
                     analysis::MaliciousChain::paper_bound(mal.effective_l()),
                     4)
              << "\n";
  }
  return 0;
}
