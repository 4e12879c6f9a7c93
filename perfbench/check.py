"""Compare one job's exit code and stdout with the reference answer.

`Checker.check` returns an Outcome.  Its status is "ok", or the reason
the job failed:
- "exit": unexpected exit code or an exception out of cli.main;
- "parse": stdout is not the expected JSON shape;
- "answer": an exact answer differs from the reference;
- "miss": a trajectory file's emitted events are the exact events with
  some left out (the float grid detector dropped them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

EVENT_TIME_SLACK = 1e-6


@dataclass
class Outcome:
    status: str = "ok"
    detail: str = ""
    counts: dict = field(default_factory=dict)


def rational_str(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Checker:
    """Reference answers are cached per input, so repeated inputs (the
    built-in braids, the fixed suites) cost one reference computation."""

    def __init__(self):
        self._cache = {}
        self.known_failures = []

    def _answer(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, job, code, text):
        if code != 0:
            return Outcome("exit", f"exit code {code}")
        try:
            doc = json.loads(text)
            return getattr(self, "_" + job.answer[0])(job, doc)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return Outcome("parse", f"{type(exc).__name__}: {exc}")

    # -- numeric and symbolic matrices ------------------------------------

    def _rep(self, job, doc):
        _, n, braid, values, entry = job.answer
        cols = self._answer(("rep", n, braid, values),
                            lambda: self._numeric(n, braid, dict(values)))
        index = {pq: pos for pos, pq in enumerate(ref.basis_pairs(n))}
        dim = len(index)
        counts = {"dim": dim, "nonzeros": sum(1 for col in cols for v in col if v)}
        if entry:
            expected = rational_str(cols[index[entry[1]]][index[entry[0]]])
            return self._verdict(doc == expected, f"{doc!r} != {expected!r}", counts)
        expected = {(r, c): rational_str(v)
                    for c, col in enumerate(cols) for r, v in enumerate(col) if v}
        got = self._entries(doc, n, dim, [f"x_{p}_{q}" for p, q in index], str)
        return self._verdict(got == expected, "matrix differs", counts)

    def _numeric(self, n, braid, values):
        word, pure = ref.phi_word(n, list(braid))
        if not pure:
            raise AssertionError("benchmark generated a non-pure braid")
        values = {k: Fraction(v) if isinstance(v, str) else v for k, v in values.items()}
        if not ref.is_identity(ref.numeric_columns(n, word, dict.fromkeys(values, 1))):
            self.known_failures.append(f"all-ones image of a {n}-strand pure braid "
                                       "is not the identity")
        return ref.numeric_columns(n, word, values)

    def _symbolic(self, job, doc):
        _, n, braid = job.answer
        expected = self._answer(
            job.answer, lambda: ref.symbolic_entries(n, ref.phi_word(n, list(braid))[0]))
        names = ref.strand_names(n)
        got = self._entries(doc, n, n * (n - 1),
                            [f"x_{p}_{q}" for p, q in ref.basis_pairs(n)],
                            lambda v: ref.parse_poly(v, names))
        return self._verdict(got == expected, "symbolic matrix differs",
                             self._laurent(expected))

    def _burau(self, job, doc):
        _, n, braid, reduced = job.answer
        expected = self._answer(job.answer, lambda: ref.burau_entries(n, list(braid), reduced))
        dim = n - 1 if reduced else n
        basis = [f"v_{i}" for i in range(1, n)] if reduced else [
            f"e_{i}" for i in range(1, n + 1)]
        got = self._entries(doc, n, dim, basis, lambda v: ref.parse_poly(v, ["t"]))
        return self._verdict(got == expected, "Burau matrix differs", self._laurent(expected))

    @staticmethod
    def _entries(doc, n, dim, basis, parse):
        if doc["n"] != n or doc["dim"] != dim or doc["basis"] != basis:
            raise ValueError("wrong n, dim or basis")
        got = {}
        for e in doc["entries"]:
            key = (e["row"], e["col"])
            if key in got:
                raise ValueError(f"entry {key} listed twice")
            got[key] = parse(e["value"])
        return got

    @staticmethod
    def _laurent(entries):
        max_terms, max_bits, total = ref.poly_sizes(entries.values())
        return {"max_terms": max_terms, "max_coeff_bits": max_bits, "total_terms": total}

    # -- verification suites ----------------------------------------------

    def _gn(self, job, doc):
        expected = self._answer(job.answer, lambda: ref.gn_relations_doc(job.answer[1]))
        return self._verdict(doc == expected, "gn-relations report differs")

    def _braid(self, job, doc):
        expected = self._answer(job.answer, lambda: ref.braid_relations_doc(job.answer[1]))
        return self._verdict(doc == expected, "braid-relations report differs")

    def _oracle(self, job, doc):
        expected = self._answer(job.answer, lambda: ref.oracle_doc(job.answer[1]))
        return self._verdict(doc == expected, "oracle report differs")

    # -- motions ----------------------------------------------------------

    def _sigma(self, job, doc):
        _, n, i = job.answer
        triples = [list(t) for t, _ in ref.generator_word(n, i)]
        times = self._event_times(doc, n)
        ok = ([e["triple"] for e in doc["events"]] == triples
              and all(0 < t < 1 for t in times))
        return self._verdict(ok, "swap motion word differs", self._gaps(times))

    def _events(self, job, doc):
        motion = job.motion
        expected = ref.exact_events(motion)
        times = self._event_times(doc, motion["n"])
        got = [tuple(e["triple"]) for e in doc["events"]]
        want = [t for t, _ in expected]
        counts = self._gaps(times)
        counts["true_events"] = len(want)
        if got != want:
            common = ref.common_subsequence(want, got)
            counts["missed"] = len(want) - common
            # dropped events are the grid detector's known defect; a wrong,
            # extra or misordered event is a wrong answer
            status = "miss" if common == len(got) else "answer"
            return Outcome(status, f"{len(got)} events emitted, {len(want)} exact",
                           counts)
        late = max((abs(a - b) for a, (_, b) in zip(times, expected)), default=0.0)
        return self._verdict(late <= EVENT_TIME_SLACK, f"event time off by {late:.3g}",
                             counts)

    @staticmethod
    def _event_times(doc, n):
        if doc["n"] != n:
            raise ValueError("wrong n")
        times = [e["time"] for e in doc["events"]]
        if doc["word"] != [e["triple"] + [1] for e in doc["events"]]:
            raise ValueError("word does not spell the events")
        if times != sorted(times):
            raise ValueError("event times out of order")
        return times

    @staticmethod
    def _gaps(times):
        counts = {"events": len(times)}
        if len(times) > 1:
            counts["min_gap"] = min(b - a for a, b in zip(times, times[1:]))
        return counts

    @staticmethod
    def _verdict(ok, detail, counts=None):
        return Outcome("ok" if ok else "answer", "" if ok else detail, counts or {})

    # -- answers known from the literature ---------------------------------

    def known_answers(self):
        """Bigelow's braid: corner entry -399 at n = 5 (t1 = -1) and n = 6
        (t1 = s1 = -1), and reduced Burau image the identity."""
        failures = list(self.known_failures)
        big = ref.bigelow_letters()
        index5 = {pq: pos for pos, pq in enumerate(ref.basis_pairs(5))}
        index6 = {pq: pos for pos, pq in enumerate(ref.basis_pairs(6))}
        for n, index, minus in ((5, index5, ("t1",)), (6, index6, ("t1", "s1"))):
            values = {name: -1 if name in minus else 1 for name in ref.strand_names(n)}
            key = ("rep", n, tuple(big), tuple(values.items()))
            cols = self._answer(key, lambda: self._numeric(n, big, values))
            if cols[index[1, 2]][index[1, 2]] != -399:
                failures.append(f"corner entry of Bigelow's braid at n={n} is not -399")
        burau = ref.burau_entries(5, big, True)
        if burau != {(i, i): {(0,): 1} for i in range(4)}:
            failures.append("reduced Burau image of Bigelow's braid is not the identity")
        return failures
