// E11 — Sec. II-C application claims: (a) Shor's algorithm factors RSA-style
// moduli via quantum period finding; (b) data-parallel search over a
// superposed dataset — the genome use case — realized as Grover substring
// matching with square-root oracle scaling against the classical scan.
//
// Exit-gated: exits 1 when a Shor row fails to factor, a Grover match is
// invalid or its success probability is below 0.995 or off the closed-form
// value by more than 1e-9, or Bernstein-Vazirani or Deutsch-Jozsa answers
// wrong. The verdict goes to stderr, so stdout is
// the tables alone.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/table.h"
#include "quantum/algorithms.h"

using namespace rebooting;
using namespace rebooting::quantum;

int main() {
  core::print_banner(std::cout,
                     "E11 / Sec. II-C — Shor factoring and Grover DNA matching");

  core::Rng rng(15);
  std::vector<std::string> failures;

  std::cout << "\n(a) Shor's algorithm (quantum order finding + continued "
               "fractions):\n";
  core::Table shor_table({"N", "factors", "order-finding runs", "qubits",
                          "period r", "wall [ms]"},
                         1);
  for (const std::uint64_t n : {15ull, 21ull, 33ull, 35ull, 39ull, 55ull}) {
    const auto t0 = std::chrono::steady_clock::now();
    // require_quantum: resample bases that would win by gcd luck, so every
    // row demonstrates order finding.
    const ShorResult r = shor_factor(n, rng, 40, /*require_quantum=*/true);
    const core::Real ms =
        std::chrono::duration<core::Real, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (!r.success || r.factor1 <= 1 || r.factor2 <= 1 ||
        r.factor1 * r.factor2 != n)
      failures.push_back("Shor did not factor N = " + std::to_string(n));
    shor_table.add_row(
        {static_cast<std::int64_t>(n),
         std::string(r.success ? std::to_string(r.factor1) + " x " +
                                     std::to_string(r.factor2)
                               : "FAILED"),
         static_cast<std::int64_t>(r.attempts),
         static_cast<std::int64_t>(r.qubits_used),
         static_cast<std::int64_t>(r.period), ms});
  }
  shor_table.print(std::cout);
  std::cout << "(The paper's RSA claim in miniature: the private key of any "
               "modulus this machine\ncan hold falls to period finding.)\n";

  std::cout << "\n(b) DNA subsequence matching — Grover over the offset "
               "register vs classical scan:\n";
  core::Table dna({"text length", "index qubits", "grover oracle calls",
                   "classical comparisons", "speedup (cmp/oracle)",
                   "found valid match", "success prob"},
                  2);
  for (const std::size_t length : {60u, 120u, 250u, 500u, 1000u}) {
    DnaSequence text = random_dna(rng, length);
    const DnaSequence pattern = dna_from_string("ACGTACGTTG");
    // Plant one occurrence mid-text.
    const std::size_t plant = length / 2;
    for (std::size_t j = 0; j < pattern.size(); ++j)
      text[plant + j] = pattern[j];

    std::size_t comparisons = 0;
    const auto classical = dna_match_classical(text, pattern, &comparisons);
    const DnaMatchResult grover = dna_match_grover(text, pattern, rng);

    bool valid = false;
    if (grover.position) {
      for (const std::size_t m : classical)
        if (m == *grover.position) valid = true;
    }
    // k Grover iterations over N offsets with M matches succeed with
    // probability sin^2((2k+1) asin(sqrt(M/N))) exactly: 0.9966 and 0.9956
    // at the two smallest sizes, where no k reaches 0.999.
    const core::Real theta = std::asin(std::sqrt(
        static_cast<core::Real>(classical.size()) /
        static_cast<core::Real>(1ull << grover.index_qubits)));
    const core::Real expected = std::pow(
        std::sin((2.0 * static_cast<core::Real>(grover.oracle_calls) + 1.0) *
                 theta),
        2);
    if (!valid || grover.success_probability < 0.995 ||
        std::abs(grover.success_probability - expected) > 1e-9)
      failures.push_back(
          "Grover DNA match at length " + std::to_string(length) +
          ": valid " + (valid ? "yes" : "no") + ", success probability " +
          std::to_string(grover.success_probability) + " (theory " +
          std::to_string(expected) + ")");
    dna.add_row({static_cast<std::int64_t>(length),
                 static_cast<std::int64_t>(grover.index_qubits),
                 static_cast<std::int64_t>(grover.oracle_calls),
                 static_cast<std::int64_t>(comparisons),
                 static_cast<core::Real>(comparisons) /
                     static_cast<core::Real>(std::max<std::size_t>(
                         1, grover.oracle_calls)),
                 std::string(valid ? "yes" : "no"),
                 grover.success_probability});
  }
  dna.print(std::cout);
  std::cout << "(Each oracle call evaluates the entire encoded dataset in "
               "superposition — the\npaper's 'computation of the entire "
               "data-set in parallel'; oracle calls grow as\nsqrt(offsets) "
               "while the classical scan grows linearly.)\n";

  std::cout << "\n(c) One-query oracle algorithms through the same device:\n";
  core::Table misc({"algorithm", "result"}, 1);
  const bool bv = bernstein_vazirani(0b101101, 6, rng) == 0b101101;
  const bool dj_balanced = deutsch_jozsa_is_balanced(6, true, rng);
  const bool dj_constant = !deutsch_jozsa_is_balanced(6, false, rng);
  misc.add_row({std::string("Bernstein-Vazirani, secret 0b101101"),
                std::string(bv ? "recovered in 1 query" : "FAILED")});
  misc.add_row({std::string("Deutsch-Jozsa balanced oracle"),
                std::string(dj_balanced ? "declared balanced (correct)"
                                        : "FAILED")});
  misc.add_row({std::string("Deutsch-Jozsa constant oracle"),
                std::string(dj_constant ? "declared constant (correct)"
                                        : "FAILED")});
  misc.print(std::cout);
  if (!bv) failures.push_back("Bernstein-Vazirani missed the secret");
  if (!dj_balanced) failures.push_back("Deutsch-Jozsa called balanced constant");
  if (!dj_constant) failures.push_back("Deutsch-Jozsa called constant balanced");

  for (const std::string& f : failures)
    std::cerr << "E11 gate FAIL: " << f << '\n';
  if (!failures.empty()) return 1;
  std::cerr << "E11 gate: PASS\n";
  return 0;
}
