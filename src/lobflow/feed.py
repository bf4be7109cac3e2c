"""Order event feed: wire format, parsing, validated streams, synthetic generation.

The wire format is newline-delimited JSON, one object per line, UTF-8,
with keys in this exact order and compact separators:

    {"ts":...,"seq":...,"kind":"limit","side":"buy","price":...,"size":...,"id":"..."}

`ts` is integer milliseconds since epoch, `seq` a strictly increasing
stream sequence number, `price` integer ticks (forbidden for market
orders, required otherwise), `size` a positive JSON number or a string
that spells one in JSON's number grammar, ASCII digits only: no
whitespace, underscores, `+` sign, or bare leading or trailing `.`, so
`"+1"`, `".5"`, `"5."` and `" 2 "` are rejected.  Unknown keys are
rejected.  Files carry the `.ofr` extension.

Lines written by :func:`serialize_event` are canonical; for canonical
lines ``serialize_event(parse_event(line)) == line`` byte for byte.
:func:`parse_event` reads one line through ``json.loads``, so it takes
any valid JSON spelling of a record (other key order, whitespace,
escapes), and it is the one place where each fault is named, with its
error type and message.

:func:`iter_events` (and :func:`read_events` on a file) parses a stream
in order and enforces its invariants: strictly increasing `seq` and
non-decreasing `ts`.  Every consumer reads events through it.  It reads
the lines a block at a time, 128 lines and then 512.  A block whose
every line is canonical and passes the value checks (a price present
iff the kind is not market, 0 < size < inf) becomes columns: one
`findall` of the canonical pattern, anchored per line, over the block's
lines joined by newlines gives every line's fields, which are converted
a column at a time, with kinds and sides as their enum values.  The
block's order is checked a column at a time too, against the event
before the block as well, and its events are built with one `map`.  A
block that holds any other line (another valid spelling, a fault, a
blank line, a line with a newline inside) or whose order fails goes
through the per-line path: each line is parsed by :func:`parse_event`
and checked in turn, which names the fault and its line.  Canonical
lines are read only in blocks: a line that :func:`parse_event` reads on
its own, here or from a caller, goes through ``json.loads``.  A file is
read with ``errors="surrogateescape"``, so a byte that is not UTF-8
reaches its line as a lone surrogate: the canonical pattern refuses it,
and :func:`parse_event` names the line "not UTF-8 text", a fault like
any other.  So the events, every error's type and message and the point
at which it is raised are those of reading the lines one at a time.

:func:`read_events` on a file of READ_FORK_BYTES (0.75 MB, about 7.5k
events) or more, when the affinity mask holds two CPUs or more, parses
ahead on a reader process forked for the stream while the caller
replays what it has read.  The reader iterates the file in the same
text mode, makes the same blocks and sends each, as its columns or as
its lines, marshalled over the channel of :class:`lobflow.forked.Worker`.
Decoding cannot raise, and a surrogate survives `marshal`, so an
undecodable byte reaches the caller in its block like any other fault.
The channel carries an I/O error the reader met back to the caller,
and turns a reader that dies into :class:`ReaderExited`.  The caller
numbers the lines, checks their order, builds the events and runs the
per-line path in the one function that :func:`iter_events` runs too,
so the events and errors are those of the serial path.  A small file,
a stream of lines, `taskset -c 0` and a fork that fails keep the serial
path.  The reader runs off the caller's CPU (see :mod:`lobflow.forked`),
and the gain needs that CPU free: on a 30k-event stream the forked path
took 58-76 ms against 97-99 ms serial (fastest of 20 passes), but
114-115 ms while a busy loop held either CPU, where the serial path
kept its time on the other.  So, as for `net.train`'s second process, a
busy second CPU makes the forked path the slower one.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, islice, repeat
from operator import add, le, lt
from typing import Iterable, Iterator, Optional

from . import checks, forked
from .atomic import atomic_open

# the smallest file that `read_events` parses on a forked reader, about
# 7.5k events, below every generated 8k-event stream (0.80 MB).  Of 1k,
# 2k, 4k, 8k and 16k events, 8k is the smallest at which the reader,
# placed off its caller's CPU, beat the serial one in most alternating
# pairs of every run under both `features.build_datasets` and
# `stats.daily_market_aggregates`.  With block parsing: at 8k, 180 of
# 200 and 166 of 200; at 4k, 258 of 300 under the aggregates but 178 of
# 300 under the build, 80, 55 and 43 in three runs of 100, whose medians
# differed by under 4 ms either way.  At 16k, before block parsing, 94
# and 82 of 100.  No size reached 9 of 10 under both (2-vCPU KVM guest,
# Python 3.11).
READ_FORK_BYTES = 750_000
# lines per block that `_blocks` makes, and in its first block, so that
# a forked reader's caller starts soon
_BLOCK = 512
_FIRST_BLOCK = 128


class FeedError(Exception):
    """Base class for feed-layer failures."""


class MalformedRecord(FeedError):
    """Line is not a single well-formed JSON object."""


class SchemaViolation(FeedError):
    """Record does not conform to the wire schema."""


class InvariantViolation(SchemaViolation):
    """Record parses but violates a declared event invariant."""


class OutOfOrder(FeedError):
    """Sequence number regression or timestamp decrease within a stream."""


class InvalidConfig(FeedError):
    """Generator configuration is unusable."""


class ReaderExited(FeedError):
    """The forked reader of a stream ended before the stream did."""


class EventKind(Enum):
    LIMIT = 1
    MARKET = 2
    CANCEL = 3

    @cached_property
    def wire(self) -> str:
        return self.name.lower()


class Side(Enum):
    BUY = 1
    SELL = 2

    @cached_property
    def wire(self) -> str:
        return self.name.lower()


# the members as module constants, for the per-event paths here and in
# `lob`: on Python 3.11 reading a member through its class costs about
# ten times a global's load
LIMIT, MARKET, CANCEL = EventKind
BUY, SELL = Side

_KIND_FROM_WIRE = {k.wire: k for k in EventKind}
_SIDE_FROM_WIRE = {s.wire: s for s in Side}
# the codes the block path gives a kind and a side: their enum values
_KIND_CODE = {k.wire: k.value for k in EventKind}
_SIDE_CODE = {s.wire: s.value for s in Side}
_KIND_OF_CODE = {k.value: k for k in EventKind}
_SIDE_OF_CODE = {s.value: s for s in Side}

_REQUIRED_KEYS = {"ts", "seq", "kind", "side", "size", "id"}
_ALL_KEYS = _REQUIRED_KEYS | {"price"}
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


@dataclass(slots=True, unsafe_hash=True)
class OrderEvent:
    """One parsed exchange message.  Treat it as immutable; equality and
    hashing ignore `size_str`."""

    timestamp_ms: int
    seq: int
    kind: EventKind
    side: Side
    price_ticks: Optional[int]  # None for market orders
    size: float
    order_id: str
    # Preserved only when `size` arrived as a decimal string, so that
    # serialization round-trips byte-exactly.
    size_str: Optional[str] = field(default=None, compare=False)


def _bad_value(name: str, value) -> SchemaViolation:
    """Error for an unknown kind or side; a JSON array or object (unhashable,
    possibly deeply nested) is named by its type, not its repr."""
    if isinstance(value, (list, dict)):
        return SchemaViolation(f"bad {name}: JSON {'array' if isinstance(value, list) else 'object'}")
    return SchemaViolation(f"bad {name} {value!r}")


# One canonical line, as `serialize_event` writes it.  ASCII digits only,
# JSON's integer and number grammar, and strings without escapes, control
# characters or surrogates, so each captured text is what `json.loads` would
# decode, and a line with a byte that is not UTF-8 (read as a lone
# surrogate) goes to `parse_event`, which names it.
# `ts`, `seq` and `price` take at most 18 digits and so always fit int64,
# and `price` takes no sign or leading zero and so is always positive.  A
# price follows every kind but `market` (group 4 captures its "m").  The
# pattern is anchored per line (`re.M`), so that one `findall` reads a
# block of lines joined by newlines: no group can match a newline.
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_STR = r'([^"\\\x00-\x1f\ud800-\udfff]*)'
# JSON's number grammar: the one rule for a size, a number or a string
_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
_CANONICAL = re.compile(
    rf'^\{{"ts":({_INT}),"seq":({_INT}),"kind":"((m)arket|limit|cancel)","side":"(buy|sell)",'
    r'(?(4)|"price":([1-9][0-9]{0,17}),)'
    rf'"size":(?:({_NUMBER.pattern})|"({_NUMBER.pattern})"),'
    rf'"id":"{_STR}"\}}$', re.M)


def _columns(text: str, n: int) -> Optional[tuple]:
    """The columns of `n` lines joined by newlines in `text`, when every
    line is canonical and its values pass every check, else None: the
    per-line path then parses the lines and names the fault.  The columns
    are lists of the events' fields in order (see :func:`_events`), with
    kinds and sides as their enum values."""
    if text.count("\n") != n - 1:   # a line holds a newline
        return None
    rows = _CANONICAL.findall(text)
    if len(rows) != n:
        return None
    ts, seq, kinds, _, sides, prices, numbers, size_strs, oids = zip(*rows)
    # one of a size's two groups is empty.  float() of a JSON number rounds
    # as float(int(...)) does, and overflows to inf instead of raising
    sizes = list(map(float, map(add, numbers, size_strs)))
    if not (min(sizes) > 0.0 and max(sizes) < math.inf):
        return None
    return (list(map(int, ts)), list(map(int, seq)), list(map(_KIND_CODE.__getitem__, kinds)),
            list(map(_SIDE_CODE.__getitem__, sides)), [int(p) if p else None for p in prices],
            sizes, list(oids), [s or None for s in size_strs])


def _events(columns: tuple) -> Iterator[OrderEvent]:
    """The events of a block's columns, in order."""
    ts, seq, kinds, sides, prices, sizes, oids, size_strs = columns
    return map(OrderEvent, ts, seq, map(_KIND_OF_CODE.__getitem__, kinds),
               map(_SIDE_OF_CODE.__getitem__, sides), prices, sizes, oids, size_strs)


def parse_event(line: str) -> OrderEvent:
    """Parse and validate one wire-format line into an OrderEvent.  A line
    that holds a surrogate, as a byte that is not UTF-8 reads under
    ``errors="surrogateescape"``, is not UTF-8 text."""
    checks.utf8_line(line, "", MalformedRecord)
    try:
        obj = json.loads(line)
    except ValueError as e:
        raise MalformedRecord(f"bad JSON: {e}") from e
    except RecursionError as e:
        raise MalformedRecord("bad JSON: nested too deeply") from e
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not a JSON object")

    keys = obj.keys()
    if not keys <= _ALL_KEYS:
        raise SchemaViolation(f"unknown fields: {sorted(keys - _ALL_KEYS)}")
    if not keys >= _REQUIRED_KEYS:
        raise SchemaViolation(f"missing fields: {sorted(_REQUIRED_KEYS - keys)}")

    # JSON integers decode to exactly `int`; `type(...) is int` also rejects bool
    ts, seq = obj["ts"], obj["seq"]
    if type(ts) is not int:
        raise SchemaViolation("ts must be an integer")
    if type(seq) is not int:
        raise SchemaViolation("seq must be an integer")
    try:
        kind = _KIND_FROM_WIRE[obj["kind"]]
    except (KeyError, TypeError):
        raise _bad_value("kind", obj["kind"]) from None
    try:
        side = _SIDE_FROM_WIRE[obj["side"]]
    except (KeyError, TypeError):
        raise _bad_value("side", obj["side"]) from None

    if kind is MARKET:
        if "price" in obj:
            raise InvariantViolation("market order must not carry a price")
        price = None
    else:
        if "price" not in obj:
            raise SchemaViolation(f"{kind.wire} order requires a price")
        price = obj["price"]
        if type(price) is not int:
            raise SchemaViolation("price must be an integer tick count")
        if price <= 0:
            raise InvariantViolation(f"non-positive price {price}")

    raw_size = obj["size"]
    size_str = None
    if type(raw_size) is float:
        size = raw_size
    elif type(raw_size) is str:
        if _NUMBER.fullmatch(raw_size) is None:
            raise SchemaViolation(f"bad size string {raw_size!r}")
        size = float(raw_size)
        size_str = raw_size
    elif type(raw_size) is int:
        try:
            size = float(raw_size)
        except OverflowError as e:
            raise InvariantViolation("size is too large for a float") from e
    else:
        raise SchemaViolation(f"size must be number or string, got {type(raw_size).__name__}")
    if not 0.0 < size < math.inf:
        raise InvariantViolation(f"size must be > 0, got {raw_size!r}")

    oid = obj["id"]
    if type(oid) is not str:
        raise SchemaViolation("id must be a string")

    # ts, seq and price become int64 downstream; checked last so that every
    # other rejection keeps its message
    if not (_INT64_MIN <= ts <= _INT64_MAX and _INT64_MIN <= seq <= _INT64_MAX
            and (price is None or price <= _INT64_MAX)):
        raise SchemaViolation("ts, seq and price must fit a signed 64-bit integer")

    return OrderEvent(ts, seq, kind, side, price, size, oid, size_str)


# the C function that `json.dumps` calls to quote and escape a string
_json_str = json.encoder.encode_basestring_ascii


def serialize_event(ev: OrderEvent) -> str:
    """Render an event as one canonical wire line (no trailing newline).

    The line is what ``json.dumps(obj, separators=(",", ":"))`` writes for
    the event's object, byte for byte.  Exact ints, finite floats and
    strings fill one template (an f-string writes an exact int or float as
    its repr, as `json` does); any other value, such as a bool, a numpy
    scalar or a misplaced None, goes through `json.dumps` itself."""
    ts, seq, price, oid = ev.timestamp_ms, ev.seq, ev.price_ticks, ev.order_id
    size = ev.size if ev.size_str is None else ev.size_str
    if type(size) is str:
        size = _json_str(size)
    elif type(size) is not float or not -math.inf < size < math.inf:
        size = None  # `json` spells NaN and infinities differently from repr
    if size is not None and type(ts) is int and type(seq) is int and type(oid) is str:
        if ev.kind is MARKET:
            return (f'{{"ts":{ts},"seq":{seq},"kind":"market","side":"{ev.side.wire}",'
                    f'"size":{size},"id":{_json_str(oid)}}}')
        if type(price) is int:
            return (f'{{"ts":{ts},"seq":{seq},"kind":"{ev.kind.wire}","side":"{ev.side.wire}",'
                    f'"price":{price},"size":{size},"id":{_json_str(oid)}}}')
    obj: dict = {"ts": ts, "seq": seq, "kind": ev.kind.wire, "side": ev.side.wire}
    if ev.kind is not MARKET:
        obj["price"] = price
    obj["size"] = ev.size_str if ev.size_str is not None else ev.size
    obj["id"] = oid
    return json.dumps(obj, separators=(",", ":"))


def _blocks(lines: Iterable) -> Iterator:
    """`lines` in blocks, a short first one so that a reader's caller
    starts soon: the :func:`_columns` of each block, or the block's lines
    where the per-line path must take them.  What iterating `lines`
    raises (a file's I/O error; decoding cannot raise, see
    :func:`read_events`) propagates where it is raised, and the lines
    read into that block before it are not parsed."""
    lines = iter(lines)
    size = _FIRST_BLOCK
    while block := list(islice(lines, size)):
        try:
            stripped = list(map(str.rstrip, block, repeat("\n")))
        except TypeError:   # a line that is not text: the per-line path raises at it
            stripped = None
        # a blank line sends the block line by line before any match is made
        columns = (None if stripped is None or "" in stripped
                   else _columns("\n".join(stripped), len(block)))
        yield block if columns is None else columns
        size = _BLOCK


def _checked(blocks: Iterable) -> Iterator[OrderEvent]:
    """The events of a stream given as :func:`_blocks` makes it, in order:
    it numbers the lines and enforces the stream invariants.  A block of
    columns in order, after the last event before it, is yielded whole;
    any other block goes line by line, where blank lines are skipped,
    lines are parsed by :func:`parse_event` and each fault is named with
    its line."""
    line_no = 0
    prev_seq = prev_ts = None
    for block in blocks:
        parse = type(block) is not tuple   # a block of lines, else of columns
        if not parse:
            ts, seq = block[0], block[1]
            if ((prev_seq is None or prev_seq < seq[0] and prev_ts <= ts[0])
                    and all(map(lt, seq, seq[1:])) and all(map(le, ts, ts[1:]))):
                yield from _events(block)
                line_no += len(seq)
                prev_seq, prev_ts = seq[-1], ts[-1]
                continue
            block = _events(block)
        for ev in block:
            line_no += 1
            if parse:
                line = ev.rstrip("\n")
                if not line:
                    continue
                try:
                    ev = parse_event(line)
                except FeedError as e:
                    raise type(e)(f"line {line_no}: {e}") from e
            if prev_seq is not None and ev.seq <= prev_seq:
                raise OutOfOrder(f"line {line_no}: seq {ev.seq} after {prev_seq}")
            if prev_ts is not None and ev.timestamp_ms < prev_ts:
                raise OutOfOrder(f"line {line_no}: timestamp {ev.timestamp_ms} before {prev_ts}")
            prev_seq, prev_ts = ev.seq, ev.timestamp_ms
            yield ev


def iter_events(lines: Iterable[str]) -> Iterator[OrderEvent]:
    """Parse lines in order and yield each event.

    Enforces the stream invariants (strictly increasing seq, non-decreasing
    timestamp).  Parse errors propagate annotated with the 1-based line
    number; a line holding a surrogate, which is how a byte that is not
    UTF-8 reads under ``errors="surrogateescape"``, is "not UTF-8 text".
    Lines are read a block (up to 512) ahead of the events yielded, and
    what iterating `lines` raises propagates as it is raised.
    """
    return _checked(_blocks(lines))


def read_events(path) -> Iterator[OrderEvent]:
    """Stream validated events from an `.ofr` file.

    The file is read as UTF-8 with ``errors="surrogateescape"``, so
    reading raises no decode error: a line with a byte that is not UTF-8
    raises :class:`MalformedRecord` at that line, after the events of the
    lines before it, as any other faulty line does.  The file is opened
    at the first event asked for.  A file of READ_FORK_BYTES (0.75 MB,
    about 7.5k events) or more, when the affinity mask holds two CPUs or
    more, is parsed ahead on a forked reader (see the module docstring),
    with the same events and errors raised at the same line; where the
    fork fails (EAGAIN, ENOMEM) this process parses it.  The reader is
    joined when the stream ends, raises or is closed, and a reader that
    dies raises :class:`ReaderExited`.  It pays only with a free second
    CPU: at 8k events it won 180 and 166 of 200 alternating pairs under
    `features.build_datasets` and `stats.daily_market_aggregates`, and
    with that CPU busy it is slower than the serial path."""
    n = 0   # the lines received from a reader

    def received() -> Iterator:
        nonlocal n
        for block in map(marshal.loads, iter(reader.recv, None)):
            n += len(block[0] if type(block) is tuple else block)
            yield block

    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        reader = None
        if os.fstat(fh.fileno()).st_size >= READ_FORK_BYTES and forked.spare_cpu():
            try:
                reader = forked.Worker(_read_ahead, fh, exited=lambda _: ReaderExited(
                    f"{path}: the reader process exited after line {n}"))
            except OSError:   # no process to fork (EAGAIN, ENOMEM): parse here
                pass
        if reader is None:
            yield from _checked(_blocks(fh))
        else:
            with reader:
                yield from _checked(received())


def _read_ahead(conn, fh) -> None:
    """The forked reader's body: send the :func:`_blocks` of `fh`, read as
    :func:`read_events` reads it, marshalled, then None.  What reading
    raises goes back to the caller through the worker's channel."""
    for block in _blocks(fh):
        conn.send(marshal.dumps(block))
    conn.send(None)


# ---------------------------------------------------------------------------
# Synthetic stream generation
# ---------------------------------------------------------------------------

PLANTED_LAST_EVENT_SIDE = "last-event-side"
# most events a generated stream may hold
MAX_EVENTS = 100_000_000
# largest mean gap: a gap is drawn from at most 2 * MAX_MEAN_GAP_MS + 1 = 2**32 - 1
# values, which `_Draws` takes with 32-bit draws
MAX_MEAN_GAP_MS = 2 ** 31 - 1
# PCG64 words fetched from numpy at a time by `_Draws`
_RAW_BLOCK = 1024


@dataclass
class GeneratorConfig:
    """Settings for the synthetic order-flow generator, and the defaults
    of a run config's `generator` block.

    Construction checks every value and raises :class:`InvalidConfig`:
    integer counts, prices and times (`n_events` in [0, MAX_EVENTS],
    `start_price` > `seed_levels` >= 2 so the opening ladder stays at
    positive prices, `mean_gap_ms` in [0, MAX_MEAN_GAP_MS] so that every
    gap is one 32-bit draw, `0 <= min_gap_ms <= 2 * mean_gap_ms`, and
    `start_ts` and `start_ts + n_events * 2 * mean_gap_ms` in
    [checks.UTC_MS_MIN, checks.UTC_MS_MAX] so that every `ts` has a UTC
    date in years 1-9999, which `build` demands), finite non-negative
    order-mix proportions summing to 1, and a known `planted` rule.

    Sizes are emitted as dyadic rationals (multiples of 2^-6) so that
    aggregate float arithmetic downstream is exact.
    """

    n_events: int = 20_000
    start_price: int = 10_000          # ticks
    start_ts: int = 1_510_000_000_000  # ms since epoch
    mean_gap_ms: int = 40
    min_gap_ms: int = 0
    # mix chosen so the resting population is stationary, not growing
    prop_limit: float = 0.5
    prop_market: float = 0.2
    prop_cancel: float = 0.3
    planted: Optional[str] = None      # None or PLANTED_LAST_EVENT_SIDE
    seed_levels: int = 12              # ladder depth planted at stream start

    def __post_init__(self) -> None:
        checks.integer(self.n_events, "n_events", InvalidConfig, 0, MAX_EVENTS)
        checks.integer(self.mean_gap_ms, "mean_gap_ms", InvalidConfig, 0, MAX_MEAN_GAP_MS)
        for name, lo in (("start_price", 1), ("min_gap_ms", 0), ("seed_levels", 2)):
            checks.integer(getattr(self, name), name, InvalidConfig, lo)
        checks.integer(self.start_ts, "start_ts", InvalidConfig, checks.UTC_MS_MIN)
        if self.min_gap_ms > 2 * self.mean_gap_ms:
            raise InvalidConfig("min_gap_ms must be in [0, 2*mean_gap_ms]")
        # each gap is at most 2 * mean_gap_ms
        if self.start_ts + self.n_events * 2 * self.mean_gap_ms > checks.UTC_MS_MAX:
            raise InvalidConfig("start_ts + n_events * 2 * mean_gap_ms must be at most "
                                f"{checks.UTC_MS_MAX} (the last ms of year 9999 UTC), "
                                f"got start_ts {self.start_ts}")
        if self.start_price <= self.seed_levels:
            raise InvalidConfig("start_price must exceed seed_levels")
        props = (self.prop_limit, self.prop_market, self.prop_cancel)
        for name, p in zip(("prop_limit", "prop_market", "prop_cancel"), props):
            checks.number(p, name, InvalidConfig, lo=0)
        if abs(sum(props) - 1.0) > 1e-9:
            raise InvalidConfig(f"order-mix proportions sum to {sum(props)}, not 1")
        if self.planted not in (None, PLANTED_LAST_EVENT_SIDE):
            raise InvalidConfig(f"unknown planted rule {self.planted!r}")


class _Draws:
    """The `random()` and `integers(lo, hi)` of ``np.random.default_rng(seed)``,
    value for value and in the same order, decoded in Python from blocks of
    the generator's PCG64 64-bit words.

    `random()` takes one whole word ``w`` and returns ``(w >> 11) * 2**-53``.
    `integers(lo, hi)` draws nothing for ``hi - lo == 1``; otherwise it runs
    Lemire's bounded-integer method ("Fast random integer generation in an
    interval", ACM TOMACS 29(1), 2019) on 32-bit draws.  A 32-bit draw is
    the low half of a fresh word, or the high half of the last word so
    split if that half is still unused; `random()` leaves that half alone.
    Ranges wider than 2**32 take numpy's 64-bit path, which this does not
    decode, and raise ValueError.
    """

    __slots__ = ("_word", "_high")

    def __init__(self, seed: int):
        import numpy as np

        raw = np.random.default_rng(seed).bit_generator.random_raw
        # the next word, from blocks of _RAW_BLOCK words made Python ints
        blocks = map(np.ndarray.tolist, map(raw, repeat(_RAW_BLOCK)))
        self._word = chain.from_iterable(blocks).__next__
        self._high = None   # the unused high half of the last word split, if any

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        w = self._word()
        self._high = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if n == 1:
            return lo
        if not 1 < n <= 1 << 32:
            raise ValueError(f"cannot draw from [{lo}, {hi}): range must hold 1 to 2**32 values")
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            # products whose low 32 bits fall below 2**32 % n would bias the result
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return lo + (m >> 32)


def _dyadic_size(rng) -> float:
    # multiples of 1/64 in (0, 1]
    return (1 + rng.integers(0, 64)) / 64.0


def generate_synthetic(config: GeneratorConfig, seed: int) -> Iterator[str]:
    """Yield a deterministic synthetic `.ofr` stream, one line per event.

    In planted mode every mid-price move is a market order whose side
    equals the side of the immediately preceding (deep, passive) limit
    order, so downstream labels are predictable from the last window
    event.

    Every draw comes from :class:`_Draws`, which returns what
    ``np.random.default_rng(seed)``'s `random()` and `integers(lo, hi)`
    would: `random()` is a 64-bit PCG64 word's top 53 bits times 2**-53,
    and `integers(lo, hi)` Lemire's bounded-integer method on the words'
    32-bit halves, low half first.  A stream therefore rests only on
    numpy's SeedSequence and PCG64 raw output, which numpy keeps stable
    across versions, and not on `Generator.integers`' algorithm, which it
    may change.
    """
    from . import lob

    rng = _Draws(seed)
    book = lob.OrderBook()
    integers, apply_event = rng.integers, book.apply_event
    gap_lo, gap_hi = config.min_gap_ms, 2 * config.mean_gap_ms + 1
    seq, ts = 0, config.start_ts

    def emit(kind: EventKind, side: Side, price: Optional[int], size: float,
             order_id: Optional[str] = None) -> str:
        nonlocal seq, ts
        seq += 1
        ts += integers(gap_lo, gap_hi)
        ev = OrderEvent(ts, seq, kind, side, price, size,
                        order_id if order_id is not None else f"o{seq}")
        apply_event(ev)
        return serialize_event(ev)

    def seed_ladder():
        p = config.start_price
        for off in range(1, config.seed_levels + 1):
            yield emit(LIMIT, SELL, p + off, _dyadic_size(rng))
            yield emit(LIMIT, BUY, p - off, _dyadic_size(rng))

    stream = _planted_stream if config.planted == PLANTED_LAST_EVENT_SIDE else _noise_stream
    yield from islice(chain(seed_ladder(), stream(config, rng, book, emit)), config.n_events)


def _planted_stream(config, rng, book, emit):
    while True:
        up = bool(rng.integers(0, 2))
        side = BUY if up else SELL
        bb, ba = book.best_bid(), book.best_ask()
        # all three are drawn before any is emitted: emitting draws the gap
        round_events = []
        # replenish both sides deep so the mover always finds liquidity behind best
        round_events.append((LIMIT, SELL, ba + 3 + rng.integers(0, 6), _dyadic_size(rng)))
        round_events.append((LIMIT, BUY, max(1, bb - 3 - rng.integers(0, 6)), _dyadic_size(rng)))
        # signal: deep passive order on the planted side; never moves the mid
        if up:
            round_events.append((LIMIT, BUY, max(1, book.best_bid() - 2 - rng.integers(0, 5)), _dyadic_size(rng)))
        else:
            round_events.append((LIMIT, SELL, book.best_ask() + 2 + rng.integers(0, 5), _dyadic_size(rng)))
        for kind, s, price, size in round_events:
            yield emit(kind, s, price, size)
        # mover: the one event per round that moves the mid, in direction `up`.
        # Wide spreads are re-tightened with an inward quote on the planted
        # side (same label semantics, keeps bests anchored); otherwise a
        # market order consumes the whole opposing best level.
        bb, ba = book.best_bid(), book.best_ask()
        if ba - bb >= 4:
            if up:
                price = min(bb + 1 + rng.integers(0, 3), ba - 1)
                yield emit(LIMIT, BUY, price, _dyadic_size(rng))
            else:
                price = max(ba - 1 - rng.integers(0, 3), bb + 1)
                yield emit(LIMIT, SELL, price, _dyadic_size(rng))
        else:
            opp_best = ba if up else bb
            level_size = book.level_size(SELL if up else BUY, opp_best)
            yield emit(MARKET, side, None, level_size)


def _noise_stream(config, rng, book, emit):
    while True:
        u = rng.random()
        side = BUY if rng.integers(0, 2) == 0 else SELL
        if u < config.prop_cancel and book.resting:
            # cancel a random live order, fully or by half; `resting` keeps
            # the orders in the order they came to rest
            oid = next(islice(book.resting, rng.integers(0, len(book.resting)), None))
            order = book.resting[oid]
            full = rng.random() < 0.9 or order.remaining < 1e-9
            size = order.remaining if full else order.remaining / 2.0
            yield emit(CANCEL, order.side, order.price_ticks, size, order_id=oid)
        elif u < config.prop_cancel + config.prop_market:
            opp = book.best_ask() if side is BUY else book.best_bid()
            if opp is None:
                continue
            yield emit(MARKET, side, None, _dyadic_size(rng))
        else:
            if side is BUY:
                ref = book.best_bid() or (config.start_price - 2)
                price = max(1, ref - rng.integers(-2, 8))
            else:
                ref = book.best_ask() or (config.start_price + 2)
                price = max(1, ref + rng.integers(-2, 8))
            yield emit(LIMIT, side, price, _dyadic_size(rng))


def write_stream(path, config: GeneratorConfig, seed: int) -> int:
    """Generate a synthetic stream to `path`; returns the event count.

    The stream appears at `path` only once it is complete.
    """
    n = 0
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for line in generate_synthetic(config, seed):
            fh.write(line + "\n")
            n += 1
    return n
