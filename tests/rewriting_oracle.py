"""Cross-check machinery for rewriting systems, used only by the tests.

The library needs none of this for the Jordan plane: its single leading
word ``xy`` has no ambiguities, so the diamond lemma makes the system
confluent, and the normal words y^k x^m give ``hilbert_dim(d) = d + 1``.
The tests use these generic routines to confirm both facts independently
and to exercise confluence checking and completion on toy systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from jordanlab import NcPoly, RewriteSystem, deglex_key, reduce_poly
from jordanlab.freealg import _ambiguities


def _apply_rule_at(word: str, rs: RewriteSystem, ridx: int, pos: int) -> NcPoly:
    lead, tail = rs.rules[ridx]
    prefix, suffix = word[:pos], word[pos + len(lead):]
    return NcPoly({prefix + tword + suffix: c for tword, c in tail.items()})


@dataclass(frozen=True)
class OverlapCheck:
    word: str
    rule_left: int
    rule_right: int
    left_nf: NcPoly
    right_nf: NcPoly

    @property
    def resolved(self) -> bool:
        return self.left_nf == self.right_nf


@dataclass(frozen=True)
class ConfluenceReport:
    confluent: bool
    checks: tuple

    def __bool__(self) -> bool:
        return self.confluent


def confluence_check(rs: RewriteSystem, max_degree: int) -> ConfluenceReport:
    """Resolve every ambiguity of degree <= max_degree both ways and compare."""
    checks = []
    for word, i, pos_i, j, pos_j in _ambiguities(rs):
        if len(word) > max_degree:
            continue
        left = reduce_poly(_apply_rule_at(word, rs, i, pos_i), rs)
        right = reduce_poly(_apply_rule_at(word, rs, j, pos_j), rs)
        checks.append(OverlapCheck(word, i, j, left, right))
    return ConfluenceReport(all(c.resolved for c in checks), tuple(checks))


def complete(rs: RewriteSystem, max_degree: int) -> RewriteSystem:
    """Bounded-degree completion: add oriented unresolved overlaps as rules."""
    ranks = rs.ranks()
    rules = list(rs.rules)
    while True:
        current = RewriteSystem(rs.alphabet, tuple(rules))
        report = confluence_check(current, max_degree)
        new_rule = None
        for check in report.checks:
            if check.resolved:
                continue
            h = check.left_nf - check.right_nf
            lead_word, lc = max(h.items(), key=lambda kv: deglex_key(kv[0], ranks))
            tail = NcPoly({w: Fraction(-c) / lc for w, c in h.items() if w != lead_word})
            new_rule = (lead_word, tail)
            break
        if new_rule is None:
            return current
        rules.append(new_rule)


def normal_word_count(rs: RewriteSystem, degree: int) -> int:
    """Number of words of the given degree avoiding every leading monomial."""
    leads = [lead for lead, _ in rs.rules]
    prefixes = {""}
    for lead in leads:
        for t in range(1, len(lead)):
            prefixes.add(lead[:t])
    states = sorted(prefixes)

    def step(state: str, ch: str) -> "str | None":
        t = state + ch
        if any(t.endswith(lead) for lead in leads):
            return None
        for start in range(len(t)):
            if t[start:] in prefixes:
                return t[start:]
        return ""

    counts = {s: 0 for s in states}
    counts[""] = 1
    for _ in range(degree):
        nxt = {s: 0 for s in states}
        for s, c in counts.items():
            if c == 0:
                continue
            for ch in rs.alphabet:
                s2 = step(s, ch)
                if s2 is not None:
                    nxt[s2] += c
        counts = nxt
    return sum(counts.values())
