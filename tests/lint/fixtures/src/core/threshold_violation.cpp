// Fixture: inline quorum arithmetic in protocol code. Expected:
//   line 9: [threshold] n / 2
//   line 10: [threshold] (n + k) / 2
//   line 11: [threshold] 2 * k
//   line 12: [threshold] 2 * params.k (a member-access spelling)
struct Params { unsigned k; };
bool threshold_violation(unsigned count, unsigned n, unsigned k,
                         const Params& params) {
  const bool witness = count > n / 2;
  const unsigned echo_accept = (n + k) / 2 + 1;
  const unsigned ready = 2 * k + 1;
  const unsigned params_ready = 2 * params.k + 1;
  // Not flagged: len / 2 is not a quorum shape for these patterns.
  const unsigned half_len = (count + 2) / 2;
  return witness && count >= echo_accept && count >= ready &&
         count >= params_ready && half_len > 0;
}
