"""Text format for decompositions of cuboids, plus the grid renderer.

Document layout:

* comment lines start with ``#`` (the serializer records the host and
  any provenance notes there, each note on one ``# note:`` line, so a
  note is one line of ASCII text with no leading or trailing blanks,
  which is what parsing gives back);
* the first non-comment line is the header ``k n``, the only source of
  the host ``P(k, n)``;
* every following line is one chain, elements space-separated in
  ascending rank order.

Elements come in two spellings.  The compact form (only for n <= 10)
is k binary digits followed by a single decimal level digit, e.g.
``110102``.  The general form is comma-separated binary digits, a
semicolon, then a decimal level: ``1,1,0,1,0;12``.  Bit 1 is always the
leftmost digit.  Bits and levels are ASCII digits, and a header number
or level has at most ``MAX_DIGITS`` significant digits.  A document is
ASCII text, its comments included, read or written; output has bare
newlines, so identical inputs serialize to identical bytes.

Serializing and parsing share one table per host ``(k, n)`` of the
canonical spelling of every base and every level (``_spellings``).  A
document at least ``len(host) * (k + 2)`` characters long, enough to
spell every element, maps each line's tokens through the host's table of
canonical spellings (``_elements_by_spelling``).  Any other token, and
every token of a shorter document, takes ``_parse_token``, the one token
parser of both spellings, so a short document of a huge host allocates
nothing per element.  The table never changes, so a document parses the
same whatever was parsed before it.

``write_lines`` is the one writer.  It refuses a bad note first, then
yields the document in blocks of at most ``BLOCK_LINES`` chain lines, so
whoever writes the blocks out holds one block of text, never the whole
document.  ``write_scd`` spells a decomposition's chains into it, and
``serialize_scd`` is the join of its blocks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .chains import SCD
from .posets import MAX_HOST_ELEMENTS, GradedPoset, build_cuboid, cuboid_shape, packet_grid
from .tables import BUILTIN_TABLES


class ParseError(ValueError):
    """Raised for malformed decomposition documents."""


COMPACT_LEVEL_LIMIT = 10  # single level digit; larger n needs the general form
# No admissible host has a dimension, chain length or level of more
# significant digits: each is below MAX_HOST_ELEMENTS.
MAX_DIGITS = len(str(MAX_HOST_ELEMENTS))
# Chain lines per block of write_scd: a writer holds one block of text at
# a time, and a block is long enough that writing it costs nothing
# measurable per line.
BLOCK_LINES = 1024


def _decimal(digits: str, what: str) -> int:
    """The value of ASCII decimal digits, leading zeros allowed.  The
    significant digits are counted before ``int`` sees them, so an
    over-long number is a ParseError, not Python's digit limit."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        raise ParseError(
            f"{what} has {len(digits)} significant digits; "
            f"no admissible host needs more than {MAX_DIGITS}"
        )
    return int(digits)


def _parse_token(token: str, k: int, n: int) -> tuple[int, int]:
    """The element of P(k, n) a token names, in either spelling: a token
    holding ``;`` is in the general form, any other in the compact one."""
    head, sep, level = token.partition(";")
    if sep:
        bits, form = head[::2], f"'b1,...,bk;level' with {k} binary digits"
        spelled = ",".join(bits) == head  # each bit one character, commas between
    elif n > COMPACT_LEVEL_LIMIT:
        raise ParseError(
            f"token {token!r}: compact form is ambiguous for n={n} > "
            f"{COMPACT_LEVEL_LIMIT}; use the general form 'b1,...,bk;level'"
        )
    else:
        bits, level, form = token[:-1], token[-1:], f"{k} bits plus one level digit"
        spelled = True
    if not (spelled and len(bits) == k and not bits.strip("01")
            and level.isascii() and level.isdigit()):
        raise ParseError(f"token {token!r}: expected {form}")
    c = _decimal(level, f"token {token!r}: level")
    if c >= n:
        raise ParseError(f"token {token!r}: level {c} outside chain of length {n}")
    return (int(bits, 2) if k else 0, c)


@lru_cache(maxsize=16)
def _spellings(k: int, n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The canonical spelling of every base of P(k, n), indexed by its
    bits (in the general form with its commas and semicolon), and of
    every level: element ``(b, c)`` is spelled ``bases[b] + levels[c]``."""
    bases = [""]
    for _ in range(k):  # each pass prepends the next higher bit
        bases = ["0" + s for s in bases] + ["1" + s for s in bases]
    if n > COMPACT_LEVEL_LIMIT:
        bases = [",".join(s) + ";" for s in bases]
    return tuple(bases), tuple(str(c) for c in range(n))


@lru_cache(maxsize=16)  # one table per host, for as many hosts as build_cuboid keeps
def _elements_by_spelling(k: int, n: int) -> dict[str, tuple[int, int]]:
    """The element of P(k, n) that each canonical spelling names."""
    bases, levels = _spellings(k, n)
    return {base + level: (b, c)
            for b, base in enumerate(bases) for c, level in enumerate(levels)}


def parse_scd(text: str) -> SCD:
    """Parse a decomposition document into an SCD over ``build_cuboid(k, n)``,
    where ``k n`` is the document's header, its only source of the host.

    Chains written top-down are flipped to the canonical bottom-up order,
    and any ``# note:`` comment lines are recovered as the decomposition's
    notes so that documents survive tool pipelines byte-for-byte.  A
    document with any character that is not ASCII is refused, in a comment
    or a blank as in a token.  Repeated elements are left for the validator.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    notes = tuple(
        ln[len("# note:"):].strip() for ln in lines if ln.startswith("# note:")
    )
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty document")
    parts = lines[0].split()
    # Canonical decimals only: a compact chain line like "000000 000001"
    # must not pass for a header.
    if len(parts) != 2 or not all(
        p.isascii() and p.isdigit() and (p == "0" or p[0] != "0") for p in parts
    ):
        raise ParseError(f"expected header 'k n', got {lines[0]!r}")
    k, n = (_decimal(p, "header number") for p in parts)
    if n < 1:
        raise ParseError(f"bad dimensions k={k}, n={n}")

    host = build_cuboid(k, n)
    # Only a document long enough to spell every element (k + 2
    # characters each, the shortest canonical token and its separator)
    # takes the host's table, so its memory stays bounded by the input.
    table = _elements_by_spelling(k, n) if len(text) >= len(host) * (k + 2) else {}
    get = table.__getitem__
    chains = []
    for line in lines[1:]:
        tokens = line.split()
        try:
            chains.append(tuple([*map(get, tokens)]))
        except KeyError:
            chains.append(tuple([table.get(t) or _parse_token(t, k, n) for t in tokens]))
    # A token that is not ASCII was refused above, by name; what is left
    # is a comment or a blank.
    if not text.isascii():
        bad = next(ch for ch in text if not ch.isascii())
        raise ParseError(f"document holds {bad!r}; a document is ASCII text")
    # Top-down iff the ranks never rise; only then can the first rank be
    # at least the last.  Reversing a one-element chain changes nothing.
    first, last = itemgetter(0), itemgetter(-1)
    for i, (b, c), (b2, c2) in zip(count(), map(first, chains), map(last, chains)):
        if b.bit_count() + c >= b2.bit_count() + c2:
            ranks = [bits.bit_count() + level for bits, level in chains[i]]
            if ranks == sorted(ranks, reverse=True):
                chains[i] = chains[i][::-1]
    return SCD(host, tuple(chains), notes)


def write_scd(scd: SCD) -> Iterator[str]:
    """Render an SCD over a cuboid host as a document (see module doc),
    its chains spelled by :func:`chain_lines` into :func:`write_lines`.

    Every refusal comes before the first block.  Only cuboid hosts
    serialize, and only members of the host are spelled: a decomposition
    whose report already found it valid holds nothing else, and any other
    is checked element by element first, so a foreign element, which
    could index a table from its end, raises ParseError instead.  So does
    a note that :func:`write_lines` refuses.
    """
    host = scd.host
    shape = cuboid_shape(host)
    if shape is None:
        raise ParseError(f"{host.label} is not a cuboid; only cuboid hosts serialize")
    if not scd.known_valid:
        foreign = [e for ch in scd.chains for e in ch if e not in host]
        if foreign:
            raise ParseError(f"{host.label} has no element {foreign[0]!r}; only members serialize")
    yield from write_lines(host, scd.notes, scd.chains, chain_lines(*shape))


def chain_lines(k: int, n: int) -> Callable[[Sequence[tuple]], list[str]]:
    """The lines of chains of members of P(k, n): an element costs two
    lookups in the tables of ``_spellings`` and one concatenation."""
    bases, levels = _spellings(k, n)
    return lambda chains: [" ".join([bases[b] + levels[c] for b, c in ch]) for ch in chains]


def write_lines(host: GradedPoset, notes: tuple[str, ...], rows: Sequence,
                spell: Callable[[Sequence], list[str]]) -> Iterator[str]:
    """The one document writer: the comment and header lines of the cuboid
    ``host`` with ``len(rows)`` chains and these notes, then the chain lines
    ``spell`` makes of the rows, in blocks of at most ``BLOCK_LINES`` (rows
    already spelled take ``list``).  First it refuses a note that would not
    parse back as itself: one that ``str.splitlines`` would split, one with
    outer blanks (parsing strips them) and one that is not ASCII."""
    for note in notes:
        if "".join(note.splitlines()) != note:
            raise ParseError(f"note {note!r} spans lines; a note is one line")
        if note != note.strip():
            raise ParseError(f"note {note!r} has leading or trailing blanks, which parsing strips")
        if not note.isascii():
            raise ParseError(f"note {note!r} is not ASCII; a document is ASCII text")
    k, n = cuboid_shape(host)
    head = [f"# {host.label}", f"# chains: {len(rows)}"]
    head += [f"# note: {note}" for note in notes]
    head.append(f"{k} {n}")
    yield "\n".join(head) + "\n"
    for start in range(0, len(rows), BLOCK_LINES):
        yield "\n".join(spell(rows[start:start + BLOCK_LINES])) + "\n"


def serialize_scd(scd: SCD) -> str:
    """The whole document of :func:`write_scd` as one string."""
    return "".join(write_scd(scd))


@lru_cache(maxsize=None)
def builtin_table(table_id: str) -> SCD:
    """One of the bundled decompositions, by id P53 | P54 | P55.

    Each ships as a complete document, parsed like any other.  Chain
    order is preserved exactly as shipped (it is meaningful data, not a
    canonical ordering).  The result is validated once per process.
    """
    if table_id not in BUILTIN_TABLES:
        raise ParseError(
            f"unknown table id {table_id!r}; expected one of {sorted(BUILTIN_TABLES)}"
        )
    scd = parse_scd(BUILTIN_TABLES[table_id]).with_notes(f"builtin: {table_id}")
    if not scd.report.valid or scd.report.taut_count:
        raise ParseError(f"builtin table {table_id} failed validation: {scd.report.messages}")
    return scd


def render_pictorial(p: GradedPoset, n: int) -> str:
    """ASCII packet grid of ``p x chain(n)``, one row per total rank.

    Rows run top rank down to 0; column x holds the packet sizes of base
    rank x, right-aligned, blank where the packet does not exist.
    """
    counts = packet_grid(p, n)
    width = max(len(str(c)) for c in counts.values())
    rows = []
    for y in range(p.rk + n - 1, -1, -1):
        cells = [
            str(counts[x, y]).rjust(width) if (x, y) in counts else " " * width
            for x in range(p.rk + 1)
        ]
        rows.append(" ".join(cells).rstrip())
    return "\n".join(rows) + "\n"
