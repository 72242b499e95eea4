"""Self-tests of the benchmark's own code: python3 -m pytest bench -q"""

from __future__ import annotations

import corpus
import reference
from check import check_roots, vieta_holds
from spans import Tracer, Totals, self_times

ROOTS = [1.0 + 0j, -2.0 + 0j, 0.5 + 1j, -0.3 - 0.7j, 1.1 - 0.4j]


def _reference(coeffs):
    return [(complex(re, im), scale) for re, im, scale in reference.reference_roots(
        [[c.real, c.imag] for c in coeffs])]


def test_checker_accepts_a_permuted_set():
    coeffs = corpus.expand_roots(ROOTS)
    verdict = check_roots(list(reversed(ROOTS)), _reference(coeffs), coeffs, 1e-9)
    assert verdict.ok


def test_checker_rejects_a_perturbed_set():
    coeffs = corpus.expand_roots(ROOTS)
    got = list(ROOTS)
    got[2] += 1e-6
    verdict = check_roots(got, _reference(coeffs), coeffs, 1e-9)
    assert not verdict.ok and not verdict.matched


def test_checker_rejects_a_set_with_a_missing_root():
    coeffs = corpus.expand_roots(ROOTS)
    verdict = check_roots(ROOTS[:-1], _reference(coeffs), coeffs, 1e-9)
    assert not verdict.ok and not verdict.complete


def test_checker_rejects_a_duplicated_root():
    coeffs = corpus.expand_roots(ROOTS)
    got = ROOTS[:-1] + [ROOTS[0]]
    assert not check_roots(got, _reference(coeffs), coeffs, 1e-9).ok


def test_vieta_catches_a_shifted_sum():
    coeffs = corpus.expand_roots(ROOTS)
    tols = [1e-12] * len(ROOTS)
    assert vieta_holds(ROOTS, tols, coeffs)
    assert not vieta_holds([r + 1e-6 for r in ROOTS], tols, coeffs)


def _spans(parent, start, end):
    return [("s", p, a, b, 0, 0, 0) for p, a, b in zip(parent, start, end)]


def test_self_times_on_a_nested_tree():
    #  A [0, 100]
    #  +- B [10, 40]     +- D [20, 30]
    #  +- C [50, 90]     +- E [60, 70], F [70, 85]
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0, 10, 20, 50, 60, 70]
    end = [100, 40, 30, 90, 70, 85]
    assert self_times(_spans(parent, start, end)) == [30, 20, 10, 15, 10, 15]


def test_self_times_clip_and_merge_overlapping_children():
    parent = [-1, 0, 0]
    start = [0, 5, 8]
    end = [10, 9, 12]
    assert self_times(_spans(parent, start, end)) == [5, 4, 4]


def test_tracer_links_parents_and_sums_to_wall_time():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.span("leaf", leaf)

    def outer(x):
        return wrapped_leaf(wrapped_leaf(x))

    wrapped_outer = tracer.span("outer", outer)
    assert wrapped_outer(1) == 3
    assert wrapped_outer(5) == 7
    assert [span[0] for span in tracer.spans] == ["outer", "leaf", "leaf"] * 2
    assert [span[1] for span in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    totals = Totals(tracer)
    roots_ns = sum(tracer.spans[i][3] - tracer.spans[i][2] for i in (0, 3))
    assert sum(totals.self_ns.values()) == roots_ns
    assert totals.calls == {"outer": 2, "leaf": 4}


def test_corpus_repeats_for_a_seed_and_moves_with_it():
    for name, make in corpus.ROUNDS.items():
        first, again, other = make(7), make(7), make(8)
        assert first == again, name
        assert first != other, name
        assert all(op.degree >= 2 for op in first)


def test_grim_inputs_do_not_depend_on_the_seed():
    def grim_inputs(name, seed):
        return sorted((op.coeffs for op in corpus.ROUNDS[name](seed) if op.pool == "grim"),
                      key=repr)

    for name in ("general_grim", "cli_auto"):
        assert grim_inputs(name, 3) == grim_inputs(name, 4), name
    assert len(grim_inputs("general_grim", 3)) == corpus.GRIM_POOL * len(corpus.GRIM_DEGREES)


def test_tracer_round_trips_through_json():
    tracer = Tracer()
    wrapped = tracer.span("outer", tracer.span("leaf", lambda x: x))
    wrapped(1)
    merged = Tracer()
    merged.extend(tracer.to_json())
    merged.extend(tracer.to_json())
    assert [span[1] for span in merged.spans] == [-1, 0, -1, 2]


def test_coefficient_text_round_trips_exactly():
    for c in (0.1 + 0.2j, -1e-300 - 0.0j, 1 / 3 - 2 / 7j, complex(5, -0.0)):
        text = corpus.format_coefficient(c)
        back = complex(text.replace("i", "j"))
        assert back == c and str(back.imag)[0] == str(c.imag)[0]
