"""One sharing classifier behind both simulation-free front ends.

The trace analyzer (:mod:`repro.analysis.sharing`) and the plan analyzer
(:mod:`repro.analysis.predict`) differ only in where their evidence comes
from.  Each front end turns its input into flat per-*record* columns — a
record is some accesses of one thread to one cache line: one access of a
trace, or one (region use, line) pair of a plan — and this module does the
rest:

* **aggregation** — one stable sort by (line, thread) and one ``reduceat``
  per column build the per-(line, thread) :class:`UseTable`: read and write
  counts, touched and written byte spans, and the half-open position
  window ``[lo, hi)`` of the thread's visits (the proxy for time under the
  chunked round-robin interleave);
* **word conflict** — :func:`conflicted_lines` applies the shadow oracle's
  true-sharing rule [33] (a 4-byte word written by one thread and touched
  by another), over the records of lines several threads use and one
  writes only;
* **classification** — every line used by several threads is
  ``read-shared`` (nobody writes), ``true-shared`` (a word conflict) or
  ``false-shared`` (written, every word thread-exclusive).  A false-shared
  line is *contended* only when a writer's position window overlaps
  another user's: two threads that use disjoint words at disjoint times (a
  hand-off, e.g. block boundaries of a partitioned array) cannot
  ping-pong.  Its ``significance`` is the fraction of the program's
  retired instructions attributable to the contending threads' accesses of
  the line — a worst-case analog of the oracle's false-sharing *rate*,
  compared against the same 1e-3 threshold;
* **near misses** — sole-writer adjacent lines whose write spans leave
  little slack across the seam (latent false sharing);
* one :class:`SharingReport` with the program verdict, rendering and JSON.

The front ends keep only their own per-thread locality estimators (the
trace measures revisit gaps, the plan models ``bursts_per_line``), which
feed the ``bad-ma`` verdict through :class:`ThreadProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.memory.layout import LINE_SIZE
from repro.utils.tables import render_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.plan import AccessPlan

#: Program-level decision threshold on the summed significance of contended
#: false-shared lines.  Deliberately the same value as the shadow oracle's
#: rate threshold ([33], ``FS_RATE_THRESHOLD``): both are "events per
#: instruction" quantities, so the two detectors are comparable by design.
SIGNIFICANCE_THRESHOLD = 1e-3

#: A thread's access pattern is cache-hostile when at least this fraction
#: of its accesses are line re-fetches...
HOSTILE_REFETCH_RATE = 0.25

#: ...over a footprint too large to be cache-resident anyway.
HOSTILE_MIN_FOOTPRINT = 256

#: Two sole-writer adjacent lines are a near-miss when their write spans
#: leave less than this much combined slack across the line boundary.
NEAR_MISS_MARGIN = 16

#: Line categories, in rendering (and severity) order.
CATEGORIES = ("private", "read-shared", "true-shared", "false-shared")

#: ``line = word >> _WORDS_PER_LINE_SHIFT`` for 4-byte words.
_WORDS_PER_LINE_SHIFT = 4


@dataclass(frozen=True)
class LineUse:
    """One thread's use of one cache line."""

    tid: int
    reads: float
    writes: float
    #: Half-open position window ``[lo, hi)`` of the thread's visits.
    pos: Tuple[float, float]
    #: Byte-offset span (lo, hi inclusive) of every touch on the line.
    touch_span: Tuple[int, int]
    #: Byte-offset span of the writes, or ``None`` for a read-only user.
    write_span: Optional[Tuple[int, int]]

    @property
    def accesses(self) -> float:
        return self.reads + self.writes

    def overlaps(self, other: "LineUse") -> bool:
        """Whether the two windows interleave (shared ends are hand-offs)."""
        return self.pos[0] < other.pos[1] and other.pos[0] < self.pos[1]


@dataclass
class LineSharing:
    """Classification and evidence for one line several threads use."""

    line: int
    category: str  # "read-shared" | "true-shared" | "false-shared"
    uses: List[LineUse]
    #: Named objects on the line (plan front end; empty for traces).
    objects: List[str] = field(default_factory=list)
    contended: bool = False
    significance: float = 0.0
    implicated_instructions: int = 0

    @property
    def address(self) -> int:
        return self.line * LINE_SIZE

    @property
    def threads(self) -> List[int]:
        return [u.tid for u in self.uses]

    @property
    def writers(self) -> List[int]:
        return [u.tid for u in self.uses if u.writes]

    @property
    def total_writes(self) -> float:
        return sum(u.writes for u in self.uses)

    def evidence(self) -> Dict[int, Tuple[int, int]]:
        """Per-writer written byte spans — the disjoint ranges themselves."""
        return {u.tid: u.write_span for u in self.uses
                if u.write_span is not None}

    def to_dict(self) -> Dict[str, object]:
        return {
            "line": int(self.line),
            "address": f"0x{self.address:x}",
            "category": self.category,
            "contended": self.contended,
            "significance": self.significance,
            "implicated_instructions": self.implicated_instructions,
            "objects": list(self.objects),
            "threads": [
                {
                    "tid": u.tid,
                    "reads": round(u.reads, 3),
                    "writes": round(u.writes, 3),
                    "pos": [round(u.pos[0], 4), round(u.pos[1], 4)],
                    "touch_span": list(u.touch_span),
                    "write_span": (None if u.write_span is None
                                   else list(u.write_span)),
                }
                for u in self.uses
            ],
        }


@dataclass(frozen=True)
class NearMiss:
    """Two threads solely writing adjacent lines, tight against the seam.

    One more struct field or a different allocation base would fuse the two
    write regions onto one line — latent false sharing (what SHERIFF's
    per-thread twinning would absorb at runtime).  Only temporally
    overlapping pairs are reported: a hand-off cannot turn into ping-pong.
    """

    line: int          # the lower line of the adjacent pair
    tid_low: int       # sole writer of ``line``
    tid_high: int      # sole writer of ``line + 1``
    slack_bytes: int   # unwritten bytes between the two spans
    objects: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {"line": int(self.line), "tid_low": int(self.tid_low),
                "tid_high": int(self.tid_high),
                "slack_bytes": int(self.slack_bytes),
                "objects": list(self.objects)}


@dataclass(frozen=True)
class ThreadProfile:
    """Locality profile of one thread's access stream."""

    tid: int
    n_accesses: int
    footprint_lines: int
    #: Fraction of accesses that fetch a line the thread let go cold.
    refetch_rate: float

    @property
    def hostile(self) -> bool:
        """Cache-hostile: heavy re-fetching over an uncacheable footprint."""
        return (self.footprint_lines >= HOSTILE_MIN_FOOTPRINT
                and self.refetch_rate > HOSTILE_REFETCH_RATE)

    def to_dict(self) -> Dict[str, object]:
        return {"tid": self.tid, "n_accesses": self.n_accesses,
                "footprint_lines": self.footprint_lines,
                "refetch_rate": self.refetch_rate, "hostile": self.hostile}


@dataclass
class SharingReport:
    """Sharing analysis of one program, from a trace or from a plan."""

    name: str
    nthreads: int
    total_instructions: int
    n_lines: int
    n_private: int
    shared: List[LineSharing]
    profiles: List[ThreadProfile] = field(default_factory=list)
    near_misses: List[NearMiss] = field(default_factory=list)
    #: The access plan a prediction was made from (``None`` for traces).
    plan: Optional["AccessPlan"] = None

    def category_counts(self) -> Dict[str, int]:
        counts = dict.fromkeys(CATEGORIES, 0)
        counts["private"] = self.n_private
        for ls in self.shared:
            counts[ls.category] += 1
        return counts

    def false_shared(
        self, contended_only: bool = True, min_significance: float = 0.0
    ) -> List[LineSharing]:
        """False-shared lines, hottest first."""
        out = [ls for ls in self.shared
               if ls.category == "false-shared"
               and (ls.contended or not contended_only)
               and ls.significance >= min_significance]
        out.sort(key=lambda ls: ls.significance, reverse=True)
        return out

    @property
    def fs_significance(self) -> float:
        """Summed significance of contended false-shared lines."""
        return sum(ls.significance for ls in self.false_shared())

    @property
    def has_false_sharing(self) -> bool:
        """The verdict, thresholded like the oracle's rate."""
        return self.fs_significance > SIGNIFICANCE_THRESHOLD

    @property
    def hostile_threads(self) -> List[int]:
        return [p.tid for p in self.profiles if p.hostile]

    @property
    def verdict(self) -> str:
        """Three-way label on the classifier's vocabulary."""
        if self.has_false_sharing:
            return "bad-fs"
        if self.hostile_threads:
            return "bad-ma"
        return "good"

    def object_sharing(self) -> Dict[str, str]:
        """Worst sharing category per named object.

        Severity order: private < read-shared < true-shared < false-shared
        (false sharing last because it is the category the pass exists to
        flag — true sharing on the sync word is expected).  Empty without
        a plan: a trace carries no object names.
        """
        rank = {c: i for i, c in enumerate(CATEGORIES)}
        out: Dict[str, str] = {}
        if self.plan is not None:
            out = {s.name: "private" for s in self.plan.symbols}
        for ls in self.shared:
            for name in ls.objects:
                if rank[ls.category] > rank[out.get(name, "private")]:
                    out[name] = ls.category
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "nthreads": self.nthreads,
            "total_instructions": int(self.total_instructions),
            "n_lines": int(self.n_lines),
            "category_counts": self.category_counts(),
            "fs_significance": self.fs_significance,
            "verdict": self.verdict,
            "hostile_threads": self.hostile_threads,
            "object_sharing": dict(sorted(self.object_sharing().items())),
            "near_misses": [nm.to_dict() for nm in self.near_misses],
            "shared_lines": [ls.to_dict() for ls in self.shared],
            "profiles": [p.to_dict() for p in self.profiles],
        }

    def render(self, top: int = 12) -> str:
        counts = self.category_counts()
        how = "predicted" if self.plan is not None else "touched"
        out = [
            f"{self.name}: {self.n_lines} lines {how} — "
            + ", ".join(f"{counts[c]} {c}" for c in CATEGORIES),
            ("predicted " if self.plan is not None else "")
            + f"verdict: {self.verdict}   "
            f"fs significance: {self.fs_significance:.3e} "
            f"(threshold {SIGNIFICANCE_THRESHOLD:.0e})",
        ]
        hot = self.false_shared(contended_only=False)[:top]
        if hot:
            rows = [
                [f"0x{ls.address:x}", ", ".join(ls.objects) or "-",
                 len(ls.writers), f"{ls.total_writes:.0f}",
                 "yes" if ls.contended else "no",
                 f"{ls.significance:.2e}",
                 "; ".join(f"T{t}:[{lo},{hi}]"
                           for t, (lo, hi) in sorted(ls.evidence().items()))]
                for ls in hot
            ]
            out.append(render_table(
                ["line addr", "objects", "writers", "writes", "contended",
                 "significance", "written byte spans"],
                rows, title="False-shared lines (hottest first)",
            ))
        if self.near_misses:
            out.append(
                f"{len(self.near_misses)} adjacent-line near miss(es): "
                + ", ".join(f"0x{nm.line * LINE_SIZE:x}(T{nm.tid_low}|"
                            f"T{nm.tid_high}, {nm.slack_bytes}B slack)"
                            for nm in self.near_misses[:6])
            )
        if self.hostile_threads:
            out.append("cache-hostile access patterns in threads "
                       + ", ".join(f"T{t}" for t in self.hostile_threads))
        return "\n".join(out)


def conflicted_lines(word: np.ndarray, tid: np.ndarray,
                     written: np.ndarray) -> np.ndarray:
    """Lines holding a 4-byte word that one thread writes and another
    touches — the shadow oracle's true-sharing rule [33].

    Takes one entry per touched word (``word = address >> 2``) with its
    thread and whether that touch writes; returns sorted line numbers.
    """
    if word.size == 0:
        return np.empty(0, dtype=np.int64)
    nt = int(tid.max()) + 1
    # Distinct (word, thread) pairs, then words with two or more threads.
    pair_words = np.unique(word * nt + tid) // nt
    uw, n_tids = np.unique(pair_words, return_counts=True)
    conflicted = np.intersect1d(uw[n_tids >= 2], np.unique(word[written]),
                                assume_unique=True)
    return np.unique(conflicted >> _WORDS_PER_LINE_SHIFT)


#: ``words(records) -> (word, tid, written)``: a front end's expansion of
#: the given record indices into one entry per touched 4-byte word.
WordExpander = Callable[[np.ndarray],
                        Tuple[np.ndarray, np.ndarray, np.ndarray]]


class UseTable:
    """Columnar per-(line, thread) use table, rows sorted by (line, tid).

    Built from per-record columns by one stable sort and one ``reduceat``
    per column; ``order`` and ``starts`` map rows back to the records they
    aggregate (``order[starts[r]:starts[r + 1]]``, in record order).
    """

    def __init__(self, nthreads: int, line: np.ndarray, tid: np.ndarray,
                 reads: np.ndarray, writes: np.ndarray,
                 off_lo: np.ndarray, off_hi: np.ndarray,
                 written: np.ndarray, pos_lo: np.ndarray,
                 pos_hi: np.ndarray) -> None:
        self.nthreads = nthreads
        key = line * nthreads + tid
        order = np.argsort(key, kind="stable")
        skey = key[order]
        starts = np.flatnonzero(np.r_[skey.size > 0, skey[1:] != skey[:-1]])
        self.order = order
        self.starts = starts
        self.line = skey[starts] // nthreads
        self.tid = skey[starts] % nthreads
        self.reads = np.add.reduceat(reads[order], starts)
        self.writes = np.add.reduceat(writes[order], starts)
        self.pos_lo = np.minimum.reduceat(pos_lo[order], starts)
        self.pos_hi = np.maximum.reduceat(pos_hi[order], starts)
        slo = off_lo[order]
        shi = slo if off_hi is off_lo else off_hi[order]
        self.touch_lo = np.minimum.reduceat(slo, starts)
        self.touch_hi = np.maximum.reduceat(shi, starts)
        # Write spans: sentinel offsets outside [0, 63] where not a write.
        sw = written[order]
        self.write_lo = np.minimum.reduceat(np.where(sw, slo, LINE_SIZE),
                                            starts)
        self.write_hi = np.maximum.reduceat(np.where(sw, shi, -1), starts)
        self.line_starts = np.flatnonzero(
            np.r_[self.line.size > 0, self.line[1:] != self.line[:-1]])
        self.users = np.diff(np.r_[self.line_starts, self.line.size])
        self.writers = np.add.reduceat((self.writes > 0).astype(np.int64),
                                       self.line_starts)

    @property
    def n_lines(self) -> int:
        return int(self.line_starts.size)

    def row_records(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the records aggregated into the rows ``rows`` masks."""
        counts = np.diff(np.r_[self.starts, self.order.size])
        return self.order[np.repeat(rows, counts)]

    def report(self, name: str, total_instructions: int,
               ipa: Sequence[float], words: WordExpander,
               profiles: List[ThreadProfile],
               plan: Optional["AccessPlan"] = None) -> SharingReport:
        """Classify every line and assemble the program report."""
        multi = self.users > 1
        # Only lines several threads use and one writes can hold a word
        # conflict, so only their records are expanded to words.
        candidate = np.repeat(multi & (self.writers > 0), self.users)
        conflicted = set(conflicted_lines(
            *words(self.row_records(candidate))).tolist())
        cols = [c.tolist() for c in (
            self.tid, self.reads, self.writes, self.pos_lo, self.pos_hi,
            self.touch_lo, self.touch_hi, self.write_lo, self.write_hi)]
        shared = []
        for s, n in zip(self.line_starts[multi].tolist(),
                        self.users[multi].tolist()):
            uses = [
                LineUse(tid, reads, writes, (plo, phi), (tlo, thi),
                        (wlo, whi) if writes > 0 else None)
                for tid, reads, writes, plo, phi, tlo, thi, wlo, whi
                in zip(*(c[s:s + n] for c in cols))
            ]
            line = int(self.line[s])
            shared.append(classify(line, uses, line in conflicted, ipa,
                                   total_instructions))
        return SharingReport(
            name, self.nthreads, total_instructions, self.n_lines,
            int(self.n_lines - np.count_nonzero(multi)), shared, profiles,
            near_misses(self), plan)


def classify(line: int, uses: List[LineUse], conflicted: bool,
             ipa: Sequence[float], total_instructions: int) -> LineSharing:
    """Four-way category, contention gate and significance of one line."""
    writers = [u for u in uses if u.writes]
    if not writers:
        return LineSharing(line, "read-shared", uses)
    if conflicted:
        return LineSharing(line, "true-shared", uses)
    # Several threads, writes present, every word thread-exclusive: false
    # sharing by layout.  Contention needs temporal overlap of a writer
    # with any other user — a pure hand-off cannot ping-pong.
    ls = LineSharing(line, "false-shared", uses)
    implicated = set()
    for w in writers:
        for u in uses:
            if u.tid != w.tid and w.overlaps(u):
                implicated.add(w.tid)
                implicated.add(u.tid)
    if implicated and total_instructions > 0:
        instr = sum(u.accesses * ipa[u.tid]
                    for u in uses if u.tid in implicated)
        ls.contended = True
        ls.implicated_instructions = int(round(instr))
        ls.significance = instr / total_instructions
    return ls


def near_misses(table: UseTable) -> List[NearMiss]:
    """Sole-writer adjacent-line pairs packed tight against the seam.

    Works on the table's columns, so private lines — where the classic
    near miss lives — are covered without per-line objects.
    """
    sole = table.writers == 1
    if not sole.any():
        return []
    # Row of each line's first (here: only) writer.
    wrote = table.writes > 0
    first_writer = np.minimum.reduceat(
        np.where(wrote, np.arange(wrote.size), wrote.size),
        table.line_starts)
    rows = first_writer[sole]
    wline = table.line[rows]
    out: List[NearMiss] = []
    for i in np.flatnonzero(wline[1:] == wline[:-1] + 1).tolist():
        a, b = rows[i], rows[i + 1]
        if table.tid[a] == table.tid[b]:
            continue
        if not (table.pos_lo[a] < table.pos_hi[b]
                and table.pos_lo[b] < table.pos_hi[a]):
            continue  # temporally disjoint: a hand-off, not a risk
        slack = int(LINE_SIZE - 1 - table.write_hi[a] + table.write_lo[b])
        if slack >= NEAR_MISS_MARGIN:
            continue
        out.append(NearMiss(int(wline[i]), int(table.tid[a]),
                            int(table.tid[b]), slack))
    return out
