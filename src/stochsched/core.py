"""Instance model: discrete processing-time distributions, jobs, machines.

Everything exact: probabilities, weights and all derived quantities are
`fractions.Fraction` or integers over a known common denominator, so
identities tested elsewhere hold to the bit.  This module is the one
home of an instance's integers.  `ProcDist` keeps its probabilities as
integer `counts` over their lcm `scale`; a one-point pmf, an exact `int`
with the `Fraction` 1 in a 1-tuple or a dict, stores that state
directly, and every other spelling runs the general loop.
`Instance.scaled`, built in the pass that validates the instance, holds
every weight and mean as an integer over one weight scale and one mean
scale.  The greedy dispatch, `list_schedule` and `oracle`'s optima run
on these views and build a `Fraction` only for what they return.
`exact_int` is the one rule for an integer argument: an int, not a
bool.  `list_schedule` is the one kernel of the expected-duration list
schedule: the list cost, the list and speed beta tables (`dualfit`), the
per-job bounds (`oracle`), the serving order of `greedy_time` and the LP
horizon witness (`lp`) read it.  `Instance.ratio`, `priority_split` and
the `expected_increase` references stay on `Fraction`s, independent of
that view.  `_RATIONAL_TEXT` is the one grammar of rational text, for
`as_fraction` (so `cli`'s `--f`) and `strict_fraction`; with `read_format`
and `rational_table`, the reader of `[int key, ..., rational]` arrays,
they are the one strict JSON layer of `SCHED v1` and `CERT v1`
(`certify`).  The instance format's reader and writer, `parse_instance`
and `emit_instance`, sit beside that layer.
"""
from __future__ import annotations

import json
import math
import re
import warnings
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Union

from .errors import (
    ForbiddenPairError,
    ProbSumError,
    SchemaError,
    SmallMeanWarning,
    UnschedulableError,
    ZeroMeanError,
)

FractionLike = Union[Fraction, int, str]
# machine -> (job id, weight, completion) rows, see `list_schedule`
Schedule = dict[int, list[tuple[int, int, int]]]

__all__ = [
    "ProcDist",
    "Job",
    "Instance",
    "Scaled",
    "PrioritySplit",
    "exact_int",
    "as_fraction",
    "strict_fraction",
    "rational_table",
    "read_format",
    "parse_instance",
    "emit_instance",
    "max_scv",
    "priority_split",
    "list_schedule",
    "schedule_cost",
    "fixed_assignment_cost",
]


# the one grammar of a rational written as text: an integer or p/q in
# ASCII digits with an optional sign, each part within Python's 4,300-digit
# int limit, so no short text stands for a huge number
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")


def _text_fraction(text: str) -> Fraction:
    """`text` read by the rational grammar, or a ValueError that echoes
    at most its first 32 characters."""
    match = _RATIONAL_TEXT.fullmatch(text)
    if match:
        p, q = match.groups()
        try:
            return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
        except ZeroDivisionError:
            pass
    shown = text if len(text) <= 32 else text[:29] + "..."
    raise ValueError(f"{shown!r} is not an integer or 'p/q' in ASCII digits with "
                     "at most 4300 digits a part and a nonzero q")


def exact_int(value: object) -> bool:
    """The one rule for an integer argument: an int, a subclass of int
    included, but not a bool."""
    return isinstance(value, int) and value.__class__ is not bool


def as_fraction(value: FractionLike) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to Fraction; a string
    follows the rational grammar of `_RATIONAL_TEXT`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a number here")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _text_fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def strict_fraction(value: object, where: str) -> Fraction:
    """A rational of the exchange formats: an int, not a bool, or a
    string in the rational grammar.  Anything else, such as a float, a
    decimal point or an exponent, raises SchemaError naming `where`."""
    if exact_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _text_fraction(value)
        except ValueError:
            pass
    raise SchemaError(f"{where}: rationals are integers or 'p/q' strings, got {value!r}")


def rational_table(rows: object, keys: int, where: str) -> dict:
    """Rows `[key, ..., rational]` of `keys` int keys (no bools) as a dict
    from the key, or the tuple of keys, to the `strict_fraction`; any other
    shape, or a key given twice, raises SchemaError naming `where`."""
    if rows.__class__ is not list:
        raise SchemaError(f"{where}: expected an array of rows")
    table: dict = {}
    for row in rows:
        if row.__class__ is not list or len(row) != keys + 1:
            raise SchemaError(f"{where}: each row is [{'int, ' * keys}rational], got {row!r}")
        key = row[0] if keys == 1 else tuple(row[:keys])
        if ((key.__class__ is not int and not exact_int(key)) if keys == 1
                else any(part.__class__ is not int and not exact_int(part) for part in key)):
            raise SchemaError(f"{where}: keys are integers, got {row!r}")
        if key in table:
            raise SchemaError(f"{where}: duplicate key {key!r}")
        table[key] = strict_fraction(row[keys], where)
    return table


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def read_format(text: str, marker: str, fields: Iterable[str]) -> dict:
    """Decode one exchange-format text: JSON whose top level is an object
    with `format` equal to `marker` and no other field outside `fields`.
    No object may name a key twice.  Anything else, nesting too deep to
    decode included, raises SchemaError."""
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deep to decode") from None
    except ValueError as exc:  # also an integer literal over the digit limit
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError("top level must be an object")
    if payload.get("format") != marker:
        raise SchemaError(f"missing or wrong format marker, expected {marker!r}")
    extra = set(payload) - {"format", *fields}
    if extra:
        raise SchemaError(f"unknown top-level fields {sorted(extra)}")
    return payload


def parse_instance(text: str) -> Instance:
    """Strict reader for the `SCHED v1` schema.  It checks the shape;
    the values of the machine count, ids, releases, weights and support
    are checked by `Instance`, `Job` and `ProcDist`, whose refusals
    become SchemaErrors naming the field."""
    payload = read_format(text, "SCHED v1", ("machines", "jobs"))
    try:
        machines, rows = payload["machines"], payload["jobs"]
    except KeyError as exc:
        raise SchemaError(f"instance: missing field {exc}") from None
    if not isinstance(rows, list):
        raise SchemaError("instance.jobs: expected an array")
    jobs = []
    for pos, row in enumerate(rows):
        context = f"jobs[{pos}]"
        if not isinstance(row, dict):
            raise SchemaError(f"{context}: expected an object")
        extra = row.keys() - ("id", "w", "r", "proc")
        if extra:
            raise SchemaError(f"{context}: unknown fields {sorted(extra)}")
        try:
            job_id, weight, release, proc = row["id"], row["w"], row["r"], row["proc"]
        except KeyError as exc:
            raise SchemaError(f"{context}: missing field {exc}") from None
        if not isinstance(proc, list):
            raise SchemaError(f"{context}.proc: expected an array")
        dists: list[Optional[ProcDist]] = []
        for m, entry in enumerate(proc):
            if entry is None:
                dists.append(None)
                continue
            where = f"{context}.proc[{m}]"
            if not entry:
                raise SchemaError(f"{where}: expected null or a nonempty array of [value, prob]")
            try:
                dists.append(ProcDist(rational_table(entry, 1, where)))
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from None
        try:
            jobs.append(Job(job_id, strict_fraction(weight, f"{context}.w"), release, dists))
        except ValueError as exc:
            raise SchemaError(f"{context}: {exc}") from None
    try:
        inst = Instance(machines, jobs)
    except (ValueError, ZeroMeanError) as exc:
        raise SchemaError(str(exc)) from None
    if not jobs:  # after the machine count, which `Instance` checks first
        raise SchemaError("instance must have at least one job")
    return inst


def emit_instance(inst: Instance) -> str:
    """Canonical text: `parse_instance(emit_instance(x)) == x`, and equal
    instances produce identical bytes."""
    payload = {
        "format": "SCHED v1",
        "machines": inst.machines,
        "jobs": [
            {
                "id": job.id,
                "w": str(job.weight),
                "r": job.release,
                "proc": [None if d is None else [[v, str(p)] for v, p in d.pmf]
                         for d in job.proc],
            }
            for job in inst.jobs
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


@dataclass(frozen=True)
class ProcDist:
    """Finite distribution over integer processing times >= 0.

    `pmf` maps value -> probability; probabilities are positive and sum
    to one.  Construction also stores `mean` and the integer view:
    `pmf[k]` has probability `counts[k] / scale`, `scale` the lcm of the
    denominators.  None of them is a field, so equality, hashing and
    repr read `pmf` alone.  Instances are immutable and safe to share.
    """

    pmf: tuple[tuple[int, Fraction], ...]

    def __init__(self, pmf: Union[Mapping[int, FractionLike], Iterable[tuple[int, FractionLike]]]):
        kind = pmf.__class__
        if (kind is tuple or kind is dict) and len(pmf) == 1:
            # one point, an exact int with the Fraction 1: what the loop
            # below would store, without its merge, sort and sums
            (item,) = pmf if kind is tuple else pmf.items()
            if item.__class__ is tuple and len(item) == 2:
                value, prob = item
                if (value.__class__ is int and value >= 0
                        and prob.__class__ is Fraction and prob == 1):
                    self.__dict__.update(pmf=(item,), counts=(1,), scale=1,
                                         mean=Fraction(value))
                    return
        items = (pmf.items() if kind is dict or (kind is not tuple and isinstance(pmf, Mapping))
                 else pmf)
        norm: dict[int, Fraction] = {}
        for value, prob in items:
            if (value.__class__ is not int and not exact_int(value)) or value < 0:
                raise ValueError(f"support value {value!r} must be a nonnegative integer")
            p = prob if prob.__class__ is Fraction else as_fraction(prob)
            if p.numerator <= 0:
                raise ValueError(f"probability of {value} must be positive, got {p}")
            if value in norm:
                p += norm[value]
            norm[value] = p
        # probability k is counts[k] / scale, so the sum check and the
        # moments are integer sums
        pmf = tuple(sorted(norm.items()))
        scale = math.lcm(*[p.denominator for _, p in pmf])
        counts = []
        total = first = 0
        for value, p in pmf:
            count = p.numerator * (scale // p.denominator)
            counts.append(count)
            total += count
            first += value * count
        if total != scale:
            raise ProbSumError(f"probabilities sum to {Fraction(total, scale)}, not 1")
        self.__dict__.update(pmf=pmf, counts=tuple(counts), scale=scale,
                             mean=Fraction(first, scale))

    def _power_sum(self, power: int) -> int:
        """sum_v v^power c_v: the moment of that power times `scale`."""
        return sum([v ** power * c for (v, _), c in zip(self.pmf, self.counts)])

    @classmethod
    def point(cls, value: int) -> "ProcDist":
        return cls({value: Fraction(1)})

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.pmf)

    @cached_property
    def cuts(self) -> tuple[float, ...]:
        """Per support point, the smallest float at or above the exact
        cumulative probability up to and including it.  No float lies
        strictly between a partial sum and its cut, so a float draw is
        below the cut exactly when it is below the partial sum.  The
        partial sums are integers `acc` over `scale`; `acc / scale` is
        correctly rounded, and a cut below the sum moves up one float."""
        scale = self.scale
        cuts = []
        acc = 0
        for count in self.counts:
            acc += count
            cut = acc / scale
            num, den = cut.as_integer_ratio()
            if num * scale < acc * den:
                cut = math.nextafter(cut, math.inf)
            cuts.append(cut)
        return tuple(cuts)

    @property
    def max_value(self) -> int:
        return self.pmf[-1][0]

    @cached_property
    def second_moment(self) -> Fraction:
        return Fraction(self._power_sum(2), self.scale)

    @property
    def variance(self) -> Fraction:
        return self.second_moment - self.mean * self.mean

    @cached_property
    def scv(self) -> Fraction:
        """Squared coefficient of variation Var/mean^2.  With counts c_v
        over the scale S it is (S sum v^2 c_v - (sum v c_v)^2) / (sum v c_v)^2,
        one `Fraction` of ints."""
        first = self._power_sum(1)
        if not first:
            raise ZeroMeanError("squared coefficient of variation needs a positive mean")
        return Fraction(self.scale * self._power_sum(2) - first * first, first * first)

    def tail(self, r: FractionLike) -> Fraction:
        """P(X > r)."""
        r = as_fraction(r)
        return sum((p for v, p in self.pmf if v > r), Fraction(0))

    def sample(self, rng) -> int:
        """Draw one value: the first support point whose cumulative
        probability exceeds the uniform draw `rng.random()`.  Exact: the
        draw is bisected into the float `cuts`, which bin every float
        as the rational CDF does, so no support point is ever
        mis-binned and one `rng.random()` is consumed per draw."""
        return self.support[bisect_right(self.cuts, rng.random())]


@dataclass(frozen=True)
class Job:
    """One job: positive rational weight, integer release, and one
    distribution per machine (None where the machine cannot run it).
    `permitted` lists the machines that can run it, ascending."""

    id: int
    weight: Fraction
    release: int
    proc: tuple[Optional[ProcDist], ...]

    def __init__(self, id: int, weight: FractionLike, release: int,
                 proc: Sequence[Optional[ProcDist]]):
        if (id.__class__ is not int and not exact_int(id)) or id < 1:
            raise ValueError(f"job id must be a positive integer, got {id!r}")
        w = weight if weight.__class__ is Fraction else as_fraction(weight)
        if w.numerator <= 0:
            raise ValueError(f"job {id}: weight must be positive, got {w}")
        if (release.__class__ is not int and not exact_int(release)) or release < 0:
            raise ValueError(f"job {id}: release must be a nonnegative integer")
        proc = tuple(proc)
        for d in proc:
            if d is not None:
                break  # stop at the first permitted machine
        else:
            raise UnschedulableError(f"job {id} is forbidden on every machine")
        self.__dict__.update(id=id, weight=w, release=release, proc=proc)

    @property
    def permitted(self) -> tuple[int, ...]:
        # computed per read, never stored: a job of the k = 5 lower-bound
        # family permits up to 3,600 machines, and storing the tuples
        # triples that instance's peak memory
        return tuple([i + 1 for i, d in enumerate(self.proc) if d is not None])

    def dist(self, machine: int) -> ProcDist:
        """Distribution on `machine` (1-based); raises on a forbidden pair."""
        d = self.proc[machine - 1]
        if d is None:
            raise ForbiddenPairError(f"job {self.id} cannot run on machine {machine}")
        return d

    def allows(self, machine: int) -> bool:
        return self.proc[machine - 1] is not None


class Scaled(NamedTuple):
    """An instance on integers.  Job j's weight is
    `weights[j - 1] / weight_scale`, and a distribution `d` of the
    instance has mean `means[id(d)] / mean_scale`; each scale is the lcm
    of the denominators it clears.  Means are stored once per distinct
    distribution, so shared rows cost nothing per slot."""

    weight_scale: int
    mean_scale: int
    weights: tuple[int, ...]
    means: dict[int, int]


@dataclass(frozen=True)
class Instance:
    """m unrelated machines and jobs numbered 1..n in arrival order.

    Construction validates the jobs and, in the same pass over every
    distinct distribution, builds the integer view `scaled` and records
    `deterministic`, whether every permitted pair's distribution is a
    point mass.  Neither is a field."""

    machines: int
    jobs: tuple[Job, ...]

    def __init__(self, machines: int, jobs: Sequence[Job]):
        if (machines.__class__ is not int and not exact_int(machines)) or machines < 1:
            raise ValueError("machine count must be a positive integer")
        jobs = tuple(jobs)
        small = 0
        deterministic = True
        release = 0
        weight_scale = mean_scale = 1
        # id()s are stable here: the jobs keep every row and distribution alive
        rows: set[int] = set()
        means: dict[int, Fraction] = {}
        for pos, job in enumerate(jobs, start=1):
            if job.id != pos:
                raise ValueError(f"job ids must be 1..n in order; position {pos} has id {job.id}")
            if len(job.proc) != machines:
                raise ValueError(f"job {job.id} lists {len(job.proc)} machines, expected {machines}")
            if job.release < release:
                raise ValueError(f"releases must be nondecreasing in id; job {job.id} breaks this")
            release = job.release
            if job.weight.denominator != 1:
                weight_scale = math.lcm(weight_scale, job.weight.denominator)
            if id(job.proc) in rows:
                continue  # shared row already read
            rows.add(id(job.proc))
            for d in job.proc:
                if d is None or id(d) in means:
                    continue  # shared distribution already validated
                mean = means[id(d)] = d.mean
                if mean.numerator == 0:
                    raise ZeroMeanError(
                        f"job {job.id} has zero expected processing time on some machine")
                if mean.denominator != 1:
                    mean_scale = math.lcm(mean_scale, mean.denominator)
                    if mean.numerator < mean.denominator:
                        small += 1
                if deterministic and len(d.pmf) != 1:
                    deterministic = False
        if small:
            warnings.warn(
                "some machine/job pairs have expected processing time < 1; "
                "approximation guarantees assume means >= 1",
                SmallMeanWarning, stacklevel=2)
        scaled = Scaled(
            weight_scale, mean_scale,
            tuple([job.weight.numerator * (weight_scale // job.weight.denominator)
                   for job in jobs]),
            {key: m.numerator * (mean_scale // m.denominator) for key, m in means.items()})
        self.__dict__.update(machines=machines, jobs=jobs, scaled=scaled,
                             deterministic=deterministic)

    def __reduce__(self):
        # rebuild rather than copy state: `scaled` keys by id()
        return Instance, (self.machines, self.jobs)

    @property
    def n(self) -> int:
        return len(self.jobs)

    def job(self, job_id: int) -> Job:
        return self.jobs[job_id - 1]

    def mean(self, machine: int, job_id: int) -> Fraction:
        return self.job(job_id).dist(machine).mean

    def ratio(self, machine: int, job_id: int) -> Fraction:
        """Priority w_j / E[P_ij] used for sequencing on `machine`."""
        job = self.job(job_id)
        return job.weight / job.dist(machine).mean

    @property
    def has_releases(self) -> bool:
        return any(job.release > 0 for job in self.jobs)


@dataclass(frozen=True)
class PrioritySplit:
    """Jobs that go before (`before`) and after (`after`) a reference job
    on one machine.  The reference job itself sits in `before`."""

    before: frozenset[int]
    after: frozenset[int]


def priority_split(inst: Instance, machine: int, job_id: int) -> PrioritySplit:
    """Partition all jobs around `job_id` on `machine`.

    Higher ratio goes before; equal ratio goes before exactly for ids
    <= job_id, so the split is a total order consistent with arrival.
    Jobs forbidden on the machine land in `after` (they never precede
    anything there).  Fraction comparison is exact, which is the whole
    point of keeping weights rational.
    """
    ref = inst.ratio(machine, job_id)
    before, after = [], []
    for job in inst.jobs:
        if not job.allows(machine):
            after.append(job.id)
            continue
        r = inst.ratio(machine, job.id)
        if r > ref or (r == ref and job.id <= job_id):
            before.append(job.id)
        else:
            after.append(job.id)
    return PrioritySplit(frozenset(before), frozenset(after))


def max_scv(inst: Instance) -> Fraction:
    """Largest squared coefficient of variation over permitted pairs,
    on the integer view: each distinct distribution's
    (S sum v^2 c_v - (sum v c_v)^2) / (sum v c_v)^2, as `ProcDist.scv`
    states it, compared with the best so far by cross-multiplying, and
    one `Fraction` built at the end.  A shared distribution is read once,
    by `id` as in `Instance.__init__`; a point mass has 0."""
    num, den = 0, 1
    seen: set[int] = set()
    for job in inst.jobs:
        for d in job.proc:
            if d is None or len(d.counts) == 1 or id(d) in seen:
                continue
            seen.add(id(d))
            first = second = 0
            for (v, _), count in zip(d.pmf, d.counts):
                moment = v * count
                first += moment
                second += v * moment
            square = first * first  # positive, as an instance's means are
            spread = d.scale * second - square
            if spread * den > num * square:
                num, den = spread, square
    return Fraction(num, den)


def list_schedule(inst: Instance, assignment: Mapping[int, int]) -> Schedule:
    """The expected-duration list schedule: each machine serves its jobs
    by ratio, ties by id, processing times at their means, releases
    ignored.  A partial `assignment` (job id -> machine) schedules just
    its jobs.  Per machine, in the order of its first job in
    `assignment`: the (job id, weight, completion) rows in serving
    order, weights over `inst.scaled.weight_scale` and completions over
    `inst.scaled.mean_scale`.  A machine with two or more jobs sorts
    them by the key w * K / mean, ratio descending and id ascending,
    which is an exact integer: K is the lcm of their scaled means."""
    jobs = inst.jobs
    scaled = inst.scaled
    weights, means = scaled.weights, scaled.means
    # per machine: (id, scaled weight, scaled mean) of each of its jobs
    per_machine: dict[int, list[tuple[int, int, int]]] = {}
    for job_id, machine in assignment.items():
        job = jobs[job_id - 1]
        dist = job.proc[machine - 1]
        if dist is None:
            raise ForbiddenPairError(f"job {job.id} assigned to forbidden machine {machine}")
        per_machine.setdefault(machine, []).append((job.id, weights[job.id - 1], means[id(dist)]))
    schedule: Schedule = {}
    for machine, rows in per_machine.items():
        if len(rows) > 1:
            common = math.lcm(*{mean for _, _, mean in rows})
            rows.sort(key=lambda row: (-row[1] * (common // row[2]), row[0]))
        clock = 0
        served = []
        for job_id, weight, mean in rows:
            clock += mean
            served.append((job_id, weight, clock))
        schedule[machine] = served
    return schedule


def schedule_cost(inst: Instance, schedule: Schedule) -> Fraction:
    """Weighted completion total of a `list_schedule`, one `Fraction`."""
    total = 0
    for rows in schedule.values():
        for _, weight, completion in rows:
            total += weight * completion
    scaled = inst.scaled
    return Fraction(total, scaled.weight_scale * scaled.mean_scale)


def fixed_assignment_cost(inst: Instance, assignment: Mapping[int, int]) -> Fraction:
    """The list-model objective of `list_schedule(inst, assignment)`; a
    partial mapping prices just the assigned prefix, which the greedy's
    score-equals-cost-delta invariant is stated over."""
    return schedule_cost(inst, list_schedule(inst, assignment))
