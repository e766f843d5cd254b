"""Run the mutation matrix: deliberate one-line changes that tests must catch.

Each row of MUTANTS names a file, an exact text that must occur in it once,
the text that replaces it, and the tests expected to fail on the change.
The script first runs every named test on an unmutated copy of the
repository, where they must pass. Then, for each row, it copies the
repository again, applies the change and runs that row's tests, each to its
end. It prints "killed" when every one of them fails, and otherwise
"survived" with each named test that passed on the mutant; a parametrized
test named without an [id] passes when any of its cases does. From the
root of a source checkout:

    python tools/mutants.py [NAME ...]

Names select rows; none runs them all. The exit status is 0 when every
mutant is killed, 1 when one survives, and 2 when the table or the
unmutated run is broken, or a run ends in anything but a pass or a failure.
A change to a mutated line should re-run its rows.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "paper-suite", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # kl must skip a term on zero mass, never on a float weight that
    # rounds to 0.0: a Fraction(1, 10**400) cell against a zero cell is +inf
    Mutant(
        "kl-skip-on-float-weight",
        "src/testlab/info_geometry.py",
        "        if log_w == -math.inf:  # zero mass, however small a float w may be\n",
        "        if not w:\n",
        ("tests/test_info_geometry.py::"
         "test_kl_of_a_mass_whose_float_underflows_against_a_zero_cell_is_infinite",),
    ),
    # the log of a count is taken from the reduced c/n, as log_probability
    # takes it from a Fraction; log(c) - log(n) differs in the last bit
    Mutant(
        "kl-unreduced-log",
        "src/testlab/info_geometry.py",
        "math.log(c // g) - math.log(n // g)",
        "math.log(c) - math.log(n)",
        ("tests/test_info_geometry.py::test_kl_equals_the_fraction_formula_bit_for_bit",),
    ),
    # q's logs come from its exact masses, not from their floats, which
    # underflow to 0.0 below the double range
    Mutant(
        "kl-log-of-float-q",
        "src/testlab/info_geometry.py",
        "_divergence(terms, q.log_probs)",
        "_divergence(terms, map(log_probability, map(float, q.probs)))",
        ("tests/test_info_geometry.py::"
         "test_kl_reads_the_log_of_a_q_mass_whose_float_underflows",),
    ),
    # a sample's two divergences read one list of its terms, each against
    # its own hypothesis's logs
    Mutant(
        "divergence-k-reads-h-logs",
        "src/testlab/info_geometry.py",
        "_divergence(terms, h.log_probs), _divergence(terms, k.log_probs)",
        "_divergence(terms, h.log_probs), _divergence(terms, h.log_probs)",
        ("tests/test_info_geometry.py::test_sample_calls_equal_the_public_counting_route",
         "tests/test_info_geometry.py::test_identity_randomized_full_support"),
    ),
    # a symbol outside the alphabet is an UnknownSymbolError, an unhashable
    # one too
    Mutant(
        "count-unhashable-symbol-uncaught",
        "src/testlab/dist.py",
        "            counts[index[x]] += 1\n        except (KeyError, TypeError):\n",
        "            counts[index[x]] += 1\n        except KeyError:\n",
        ("tests/test_info_geometry.py::test_sample_calls_equal_the_public_counting_route",),
    ),
    # the exact product reads each mass's numerator and denominator, cached
    Mutant(
        "parts-num-den-swapped",
        "src/testlab/dist.py",
        "tuple((p.numerator, p.denominator) for p in self.probs)",
        "tuple((p.denominator, p.numerator) for p in self.probs)",
        ("tests/test_evidential.py::test_hand_computed_three_observations",
         "tests/test_evidential.py::test_long_sample_ratio_equals_the_fraction_product"),
    ),
    Mutant(
        "log-probability-no-sign-check",
        "src/testlab/dist.py",
        '        raise InputError(f"negative probability {p!r}")\n',
        "        pass\n",
        ("tests/test_dist.py::test_log_probability_rejects_negative_mass",),
    ),
    Mutant(
        "log-ratio-table-h-k-swapped",
        "src/testlab/evidential.py",
        "np.subtract(k.log_probs, h.log_probs)",
        "np.subtract(h.log_probs, k.log_probs)",
        ("tests/test_evidential.py::test_log_ratio_table_cells",),
    ),
    # the boundary r_n = s accepts K, in threshold_verdict and in the margin
    # rule, which decides exact evidence through it
    Mutant(
        "threshold-verdict-strict",
        "src/testlab/evidential.py",
        "        if a * d >= b * c:\n",
        "        if a * d > b * c:\n",
        ("tests/test_evidential.py::test_threshold_verdict_boundary_accepts_k_exactly",
         "tests/test_info_geometry.py::test_margin_rule_boundary_agrees_with_threshold"),
    ),
    # between 1/s and s exact evidence continues
    Mutant(
        "threshold-verdict-no-continue",
        "src/testlab/evidential.py",
        "        if a * c <= b * d:\n",
        "        if a * d <= b * c:\n",
        ("tests/test_evidential.py::test_threshold_verdict_boundary_accepts_k_exactly",),
    ),
    # the optional-stopping cutoff is the least count whose upper tail is
    # significant; a tail equal to alpha counts, and theta = 0 has its own
    # branch because the descending pass divides by theta's numerator
    Mutant(
        "cutoff-boundary-not-significant",
        "src/testlab/fisher.py",
        "    while total * den <= bound:\n",
        "    while total * den < bound:\n",
        ("tests/test_fisher.py::test_first_significant_count_equals_bisection_on_a_grid",),
    ),
    Mutant(
        "cutoff-off-by-one",
        "src/testlab/fisher.py",
        "    return k + 1\n",
        "    return k\n",
        ("tests/test_fisher.py::test_first_significant_count_equals_bisection_on_a_grid",),
    ),
    Mutant(
        "cutoff-theta-zero-branch-removed",
        "src/testlab/fisher.py",
        "    if a == 0:  # all the mass sits on 0, so every count from 1 has tail 0\n"
        "        return 1\n",
        "",
        ("tests/test_fisher.py::test_first_significant_count_equals_bisection_on_a_grid",),
    ),
    # pool threads seed replication i from stream i ^ 1; every CSV row sums
    # over replications and cannot see it, and only a test whose chunks run
    # on pool threads can
    Mutant(
        "replicate-stream-i-xor-1",
        "src/testlab/harness.py",
        "        rngs = seed._rep_rngs(span)\n",
        "        import threading\n"
        "        rngs = seed._rep_rngs(span) if threading.current_thread() is "
        "threading.main_thread() else (seed.rng(i ^ 1) for i in span)\n",
        ("tests/test_harness.py::"
         "test_per_replication_verdicts_do_not_depend_on_the_worker_count[lr-n]",
         "tests/test_golden.py::test_simulation_matches_golden_csv[c12-optional-stopping]",
         "tests/test_golden.py::test_simulation_matches_golden_csv[c11-universal-power]"),
    ),
    # replications narrower than _POOL_WIDTH run on the calling thread; the
    # test's case at _POOL_WIDTH is pooled with or without the gate
    Mutant(
        "pool-width-gate-removed",
        "src/testlab/harness.py",
        "workers if width >= _POOL_WIDTH else 1",
        "workers if width >= 0 else 1",
        ("tests/test_harness.py::"
         "test_only_replications_at_least_pool_width_wide_run_on_pool_threads[8192-False]",),
    ),
    # every scenario requirement raises through one check, the Scenario's own
    # fields included, so inverted it rejects every valid scenario; the test
    # named is in a module that builds no Scenario while it is collected
    Mutant(
        "require-check-inverted",
        "src/testlab/harness.py",
        "    if not ok:\n",
        "    if ok:\n",
        ("tests/test_cli.py::test_simulate_writes_csv",),
    ),
    # lr's three outcomes are counted from two comparisons, continue is the
    # rest, and at s = 1 a zero ln r_n accepts K
    Mutant(
        "lr-continue-counts-accept-h",
        "src/testlab/harness.py",
        "scenario.reps - accept_k - accept_h",
        "scenario.reps - accept_k",
        ("tests/test_harness.py::test_lr_one_shot_reports_ordered_trajectory_quantiles",),
    ),
    Mutant(
        "lr-s-one-zero-accepts-h",
        "src/testlab/harness.py",
        "((sums <= -log_s) & (sums < log_s))",
        "(sums <= -log_s)",
        ("tests/test_harness.py::test_lr_one_shot_at_s_one_accepts_k_on_a_zero_log_ratio",),
    ),
    # bayes, map, np and hoeffding count their two outcomes through _tally
    Mutant(
        "tally-outcome-names-swapped",
        "src/testlab/harness.py",
        "    report.verdict_counts[hit] = count\n"
        "    report.verdict_counts[miss] = reps - count\n",
        "    report.verdict_counts[miss] = count\n"
        "    report.verdict_counts[hit] = reps - count\n",
        ("tests/test_golden.py::test_simulation_matches_golden_csv[inline-bayes-H]",
         "tests/test_golden.py::test_simulation_matches_golden_csv[c11-universal-power]"),
    ),
    # the universal test reads each replication's symbol counts off truth's
    # float CDF: a uniform equal to a step reaches it, as in _step_indices,
    # and every uniform reaches step 0, so symbol 0 counts those below step 1
    Mutant(
        "hoeffding-count-strict",
        "src/testlab/harness.py",
        "(u >= step).view(np.uint8)",
        "(u > step).view(np.uint8)",
        ("tests/test_harness.py::test_threshold_counts_equal_the_index_counts",),
    ),
    Mutant(
        "hoeffding-total-count-dropped",
        "src/testlab/harness.py",
        "    ge[..., 0] = n\n",
        "",
        ("tests/test_harness.py::test_threshold_counts_equal_the_index_counts",
         "tests/test_golden.py::"
         "test_simulation_matches_golden_csv[c11-universal-null-k2-n1000]"),
    ),
    # optional stopping reduces each look's segment of a path, the first
    # from step 0 and each other from the step after the previous look
    Mutant(
        "looks-segment-starts-shifted",
        "src/testlab/harness.py",
        "starts = np.array((0,) + looks[:-1])",
        "starts = np.array((0,) + looks[:-1]) + 1",
        ("tests/test_harness.py::test_segment_reductions_equal_the_full_width_reductions",
         "tests/test_golden.py::test_simulation_matches_golden_csv[c12-optional-stopping]",
         "tests/test_golden.py::"
         "test_simulation_matches_golden_csv[inline-optional-stopping-finite]"),
    ),
    # importing testlab and running an exact subcommand load no numpy; the
    # Monte Carlo functions import it on first use
    Mutant(
        "numpy-imported-at-harness-top",
        "src/testlab/harness.py",
        "from . import dist, fisher, info_geometry, neyman_pearson\n",
        "import numpy as np\n\nfrom . import dist, fisher, info_geometry, neyman_pearson\n",
        ("tests/test_dist.py::test_importing_the_cli_leaves_numpy_random_unloaded",),
    ),
    # run loads numpy before it starts the clock, so the first simulate in a
    # process does not report numpy's import as its wall-clock time
    Mutant(
        "numpy-import-timed-by-run",
        "src/testlab/harness.py",
        "    import numpy  # noqa: F401 - so that its first import is not timed\n",
        "",
        ("tests/test_dist.py::"
         "test_two_threads_importing_numpy_first_give_the_single_thread_csv",),
    ),
    # a scenario file names only the sections, keys and params its run reads,
    # and a two-mode runner rejects the keys of its other mode
    Mutant(
        "unknown-param-accepted",
        "src/testlab/harness.py",
        "            _require(self, key in keys,\n",
        "            _require(self, True,\n",
        ("tests/test_harness.py::test_scenario_errors_give_their_whole_message[misspelt-param]",
         "tests/test_harness.py::test_scenario_errors_give_their_whole_message[bogus-key]"),
    ),
    Mutant(
        "horizon-conflict-check-removed",
        "src/testlab/harness.py",
        "        _require(scenario, not {\"n\", \"checkpoints\"} & scenario.params.keys(),\n"
        "                 \"'n' and 'checkpoints' do not apply with 'horizon'\")\n",
        "",
        ("tests/test_harness.py::"
         "test_scenario_errors_give_their_whole_message[lr-horizon-with-n]",),
    ),
    Mutant(
        "unknown-section-ignored",
        "src/testlab/harness.py",
        '            raise ScenarioError(f"{path}: unknown section [{section}]")\n',
        "            continue\n",
        ("tests/test_harness.py::test_scenario_errors_give_their_whole_message[unknown-section]",),
    ),
    # scenario values are literal: '%' is an ordinary character, and
    # [DEFAULT] is an unknown section, not defaults for every other one
    Mutant(
        "scenario-values-interpolated",
        "src/testlab/harness.py",
        "configparser.ConfigParser(interpolation=None, ",
        "configparser.ConfigParser(",
        ("tests/test_cli.py::test_simulate_fuzz_exits_0_or_1_and_does_not_depend_on_workers",),
    ),
    Mutant(
        "default-section-restored",
        "src/testlab/harness.py",
        'interpolation=None, default_section="\\n")',
        "interpolation=None)",
        ("tests/test_harness.py::test_scenario_errors_give_their_whole_message[default-section]",),
    ),
    # every command with --out writes there and prints nothing, and without
    # it writes to stdout
    Mutant(
        "write-out-branch-inverted",
        "src/testlab/cli.py",
        "    if args.out:\n        with open(args.out",
        "    if not args.out:\n        with open(args.out",
        ("tests/test_cli.py::test_out_file_holds_what_stdout_prints_without_it",),
    ),
    # the types-bound radius keeps the universal test's level at delta; ten
    # times too wide, it rejects far less often than it may
    Mutant(
        "radius-times-ten",
        "src/testlab/info_geometry.py",
        "    return ((alphabet_size - 1) * math.log(n + 1) - math.log(delta)) / n\n",
        "    return 10 * ((alphabet_size - 1) * math.log(n + 1) - math.log(delta)) / n\n",
        ("tests/test_info_geometry.py::test_radius_hand_value",),
    ),
    # replication i draws what seed.rng(i) draws, not its neighbour's stream
    Mutant(
        "span-words-stream-i-plus-1",
        "src/testlab/dist.py",
        "        i = np.arange(span.start, span.stop, span.step, dtype=u32)\n",
        "        i = np.arange(span.start + 1, span.stop + 1, span.step, dtype=u32)\n",
        ("tests/test_dist.py::test_replication_reseed_matches_rng[0]",),
    ),
    # a strided span hashes only its own indices, one row per replication
    Mutant(
        "span-words-step-dropped",
        "src/testlab/dist.py",
        "        i = np.arange(span.start, span.stop, span.step, dtype=u32)\n",
        "        i = np.arange(span.start, span.stop, dtype=u32)\n",
        ("tests/test_dist.py::test_replication_reseed_matches_rng[0]",),
    ),
    # str(int) refuses more than 4 300 digits, and an exact tail at a tiny
    # theta has about 60 000, as a message's exact sum can; Decimal prints them
    Mutant(
        "render-fraction-through-str",
        "src/testlab/dist.py",
        ('        return f"{decimal.Decimal(value.numerator)}/'
         '{decimal.Decimal(value.denominator)}"\n'),
        '        return f"{value.numerator}/{value.denominator}"\n',
        ("tests/test_cli.py::test_cli_fuzz_exits_0_or_1_and_fisher_tails_match_mpmath",
         "tests/test_evidential.py::test_priors_sum_past_4300_digits_is_an_input_error"),
    ),
    # a size is an integer: int() would truncate 2.5 to 2 and accept "2"
    Mutant(
        "size-int-truncates",
        "src/testlab/dist.py",
        "        value = operator.index(value)\n",
        "        value = int(value)\n",
        tuple(f"tests/test_cli.py::test_input_errors_give_their_whole_message[{case}]"
              for case in ("sample-size-half", "seed-root-half", "binomial-tail-n-half",
                           "radius-n-half", "np-test-n-half", "midpoint-n-half",
                           "adjust-alpha-tests-half", "run-workers-half")),
    ),
    # a size below its least is an input error, not a division by zero
    Mutant(
        "size-least-dropped",
        "src/testlab/dist.py",
        "    if least is not None and value < least:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_input_errors_give_their_whole_message[radius-n-zero]",
         "tests/test_cli.py::test_input_errors_give_their_whole_message[np-test-n-zero]"),
    ),
    # a real argument that no rule can compare (a str, None, a complex) is an
    # input error, and so is one that overflows a rule (math.isfinite past the
    # float range)
    Mutant(
        "real-type-error-uncaught",
        "src/testlab/dist.py",
        "    except TypeError:\n        return None\n",
        "",
        tuple(f"tests/test_cli.py::test_input_errors_give_their_whole_message[{case}]"
              for case in ("threshold-string", "np-test-alpha-string", "divergence-string",
                           "family-wise-sigma-string", "quantile-p-string")),
    ),
    Mutant(
        "real-overflow-uncaught",
        "src/testlab/dist.py",
        "    except OverflowError:\n        return False\n",
        "",
        tuple(f"tests/test_cli.py::test_input_errors_give_their_whole_message[{case}]"
              for case in ("gaussian-pair-mean-huge", "family-wise-sigma-huge",
                           "robbins-threshold-huge")),
    ),
    # _real checks every rule it is given, not only the first
    Mutant(
        "real-later-rules-skipped",
        "src/testlab/dist.py",
        "    for test, words in rules:\n",
        "    for test, words in rules[:1]:\n",
        ("tests/test_cli.py::test_input_errors_give_their_whole_message[threshold-half]",
         "tests/test_cli.py::test_input_errors_give_their_whole_message[robbins-threshold-huge]"),
    ),
    # an exact threshold past the float range is finite: only a float can be
    # infinite, and the exact comparison decides the rest
    Mutant(
        "threshold-finite-overflows",
        "src/testlab/dist.py",
        "not isinstance(v, float) or math.isfinite(v)",
        "math.isfinite(v)",
        ("tests/test_evidential.py::test_threshold_past_the_float_range_is_compared_exactly",),
    ),
    # one fold extends evidence by a sample: support exclusion falsifies the
    # hypothesis that gave the symbol zero mass, both falsified is an error,
    # and the exact and float ratios extend the running ones by each count
    Mutant(
        "fold-falsified-side-swapped",
        "src/testlab/evidential.py",
        '        return LogEvidence(math.inf, n, "H", None)\n'
        "    if k_new:\n"
        '        return LogEvidence(-math.inf, n, "K", None)\n',
        '        return LogEvidence(math.inf, n, "K", None)\n'
        "    if k_new:\n"
        '        return LogEvidence(-math.inf, n, "H", None)\n',
        ("tests/test_evidential.py::test_support_exclusion_falsifies_h",
         "tests/test_evidential.py::test_jointly_impossible_sequence_rejected",
         "tests/test_evidential.py::test_counts_path_equals_streaming_fold_exact",
         "tests/test_evidential.py::test_counts_path_matches_streaming_fold_float"),
    ),
    # zero mass is read off each hypothesis's own cached logs
    Mutant(
        "fold-zero-mass-reads-other-logs",
        "src/testlab/evidential.py",
        "h_zero, k_zero = lh[i] == -math.inf, lk[i] == -math.inf",
        "h_zero, k_zero = lk[i] == -math.inf, lh[i] == -math.inf",
        ("tests/test_evidential.py::test_support_exclusion_falsifies_h",
         "tests/test_evidential.py::test_long_sample_ratio_equals_the_fraction_product"),
    ),
    Mutant(
        "fold-joint-check-removed",
        "src/testlab/evidential.py",
        '    if (h_new or ev.falsified == "H") and (k_new or ev.falsified == "K"):\n'
        "        raise ImpossibleObservationError(\n"
        '            "observations are jointly impossible under both hypotheses"\n'
        "        )\n",
        "",
        ("tests/test_evidential.py::test_jointly_impossible_sequence_rejected",
         "tests/test_evidential.py::test_counts_path_equals_streaming_fold_exact"),
    ),
    Mutant(
        "fold-float-count-dropped",
        "src/testlab/evidential.py",
        "total += c * (lk[i] - lh[i])",
        "total += (lk[i] - lh[i])",
        ("tests/test_evidential.py::test_counts_path_matches_streaming_fold_float",
         "tests/test_acceptance.py::test_c06_identity_on_randomized_triples"),
    ),
    Mutant(
        "fold-float-sum-from-zero",
        "src/testlab/evidential.py",
        "    total = ev.sum_log_lr\n",
        "    total = 0.0\n",
        ("tests/test_evidential.py::test_counts_path_matches_streaming_fold_float",),
    ),
    Mutant(
        "fold-running-exact-ratio-dropped",
        "src/testlab/evidential.py",
        "            ratio *= ev.exact_ratio\n",
        "            pass\n",
        ("tests/test_evidential.py::test_counts_path_equals_streaming_fold_exact",),
    ),
    Mutant(
        "fold-exact-ratio-inverted",
        "src/testlab/evidential.py",
        "ratio = Fraction(num, den)",
        "ratio = Fraction(den, num)",
        ("tests/test_evidential.py::test_hand_computed_three_observations",),
    ),
    Mutant(
        "fold-sample-size-per-symbol",
        "src/testlab/evidential.py",
        "        n += c\n",
        "        n += 1\n",
        ("tests/test_evidential.py::test_hand_computed_three_observations",
         "tests/test_evidential.py::test_counts_path_equals_streaming_fold_exact",
         "tests/test_evidential.py::test_counts_path_matches_streaming_fold_float"),
    ),
    # a long sample's exact ratio is built in lowest terms: a factor shared
    # across the line becomes its own factor with the exponents' sum, and the
    # integers below the line count against those above it
    Mutant(
        "lowest-terms-shared-factor-dropped",
        "src/testlab/evidential.py",
        "((g, e + f), (x // g, e), (y // g, f))",
        "((x // g, e), (y // g, f))",
        ("tests/test_evidential.py::test_long_sample_ratio_equals_the_fraction_product",
         "tests/test_evidential.py::test_update_folds_onto_a_lowest_terms_ratio"),
    ),
    Mutant(
        "lowest-terms-denominator-exponent-added",
        "src/testlab/evidential.py",
        "(pk.denominator, -c)",
        "(pk.denominator, c)",
        ("tests/test_evidential.py::test_long_sample_ratio_equals_the_fraction_product",
         "tests/test_evidential.py::test_update_folds_onto_a_lowest_terms_ratio"),
    ),
    # wide per-symbol integers need more bits before the split pays
    Mutant(
        "lowest-terms-width-ignored",
        "src/testlab/evidential.py",
        " * math.sqrt(width / _NARROW):",
        ":",
        ("tests/test_evidential.py::"
         "test_wide_masses_need_more_bits_per_symbol_for_the_lowest_terms_route",),
    ),
    # counts are integers: a float count would be an exponent of the ratio
    Mutant(
        "counts-integer-check-removed",
        "src/testlab/dist.py",
        "        return tuple(map(operator.index, counts)), operator.index(n)\n",
        "        return tuple(counts), n\n",
        ("tests/test_evidential.py::test_evidence_from_counts_validates_counts",),
    ),
    # the posterior of K is 0, not an overflow, once exp(-log odds) leaves
    # the double range
    Mutant(
        "posterior-exp-overflows",
        "src/testlab/evidential.py",
        "    return 1.0 / (1.0 + _exp_or_inf(-log_odds))\n",
        "    return 1.0 / (1.0 + math.exp(-log_odds))\n",
        ("tests/test_evidential.py::"
         "test_posterior_prob_k_beyond_the_double_range_of_the_odds",
         "tests/test_cli.py::test_bayes_on_decisive_evidence_for_h_prints_posterior_zero"),
    ),
    # a str label, as files and scenarios give, has the magnitude of the
    # number it spells in a two-sided tail
    Mutant(
        "abs-label-parse-dropped",
        "src/testlab/fisher.py",
        "abs(parse_probability(y) if isinstance(y, str) else y)",
        "abs(y)",
        ("tests/test_cli.py::test_fisher_two_sided_tail_reads_signed_labels_from_a_file",
         "tests/test_harness.py::test_fisher_scenario_two_sided_tail_reads_signed_labels"),
    ),
    # a solved error rate must be a level a test may have, at most 1/2
    Mutant(
        "power-rate-bound-widened",
        "src/testlab/neyman_pearson.py",
        "    if not 0 < rate <= 0.5:\n",
        "    if not 0 < rate < 1:\n",
        ("tests/test_cli.py::test_input_errors_give_their_whole_message[power-alpha-outside]",),
    ),
    # a p-value's tail holds the observed value itself
    Mutant(
        "p-value-exclusive-tail",
        "src/testlab/fisher.py",
        "        tail = range(pos, d.size)\n",
        "        tail = range(pos + 1, d.size)\n",
        ("tests/test_fisher.py::test_float_tail_summing_past_one_is_clamped_to_one",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _run_tests(copy: Path, tests) -> subprocess.CompletedProcess:
    """pytest on the named tests of a copy, importing testlab from the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH")))
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
            "-o", "addopts=", *tests]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)


def _check_table(rows) -> list[str]:
    problems = []
    for m in rows:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            problems.append(f"{m.name}: old text occurs {found} times in {m.path}")
    return problems


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    rows = [m for m in MUTANTS if not argv or m.name in argv]
    problems = _check_table(rows)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "unmutated"
        _copy(copy)
        baseline = _run_tests(copy, sorted({t for m in rows for t in m.tests}))
        if baseline.returncode != 0:
            print("the named tests do not pass unmutated:", file=sys.stderr)
            print(baseline.stdout[-3000:], baseline.stderr[-3000:], file=sys.stderr)
            return 2
        verdicts = []
        for m in rows:
            copy = Path(tmp) / m.name
            _copy(copy)
            target = copy / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            result = _run_tests(copy, m.tests)
            # -rA's summary has one "PASSED <id>" line per test that passed,
            # and one per parametrization of a test named without its [id]
            passed = result.stdout.splitlines()
            survivors = [t for t in m.tests
                         if any(line == f"PASSED {t}" or line.startswith(f"PASSED {t}[")
                                for line in passed)]
            if result.returncode not in (0, 1):
                verdict = "error"
            else:
                verdict = "survived" if result.returncode == 0 or survivors else "killed"
            verdicts.append(verdict)
            print(f"{m.name:<32} {verdict:<8} {time.perf_counter() - t0:5.1f} s", flush=True)
            for test in survivors:
                print(f"    passes on the mutant: {test}", flush=True)
            if verdict == "error":
                print(result.stdout[-3000:], result.stderr[-3000:], file=sys.stderr)
            shutil.rmtree(copy)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(rows)} killed in {time.perf_counter() - started:.1f} s")
    if "error" in verdicts:
        return 2
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
