"""CNF construction: variable numbering, clause store, cardinality encodings, DIMACS.

A formula numbers its variables 1..n as they are allocated. It labels them
only for DIMACS: `labels` holds variable v's label, a plain tuple, at index
v - 1, written as a `c var` comment line. `parse_dimacs` fills it from a
file's comments, and an encoder fills it once for an export (see
`encoder.variable_labels`); a formula grown inside a solve has none, and
nothing finds a variable by its label.
Literals are nonzero signed ints in DIMACS convention, taken as given by
`CnfFormula`: `parse_dimacs` checks each literal of a file as it reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CnfFormula:
    """Single-owner mutable builder for a CNF formula."""

    variable_count: int = 0
    clauses: list[list[int]] = field(default_factory=list)
    labels: list[tuple] = field(default_factory=list)  # variable v's at v - 1, for DIMACS only

    def allocate(self) -> int:
        """A new variable."""
        self.variable_count += 1
        return self.variable_count

    def add(self, clause: list[int]) -> None:
        self.clauses.append(clause)  # kept, not copied: the caller hands it over

    def add_all(self, clauses: list[list[int]]) -> None:
        self.clauses.extend(clauses)


def at_most_one_pairwise(lits: list[int]) -> list[list[int]]:
    """Binary clauses forbidding every pair; n*(n-1)/2 clauses, no auxiliaries."""
    n = len(lits)
    return [[-lits[i], -lits[j]] for i in range(n) for j in range(i + 1, n)]


def at_most_k(formula: CnfFormula, lits: list[int], k: int) -> list[list[int]]:
    """Sequential-counter clauses bounding the number of true lits by k.

    Auxiliary variables are allocated in `formula`; the returned clauses are
    NOT added (the caller may post or guard them).  Projections of the
    emitted clauses' models onto lits are exactly the <=k-true assignments.
    """
    n = len(lits)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= n:
        return []
    if k == 0:
        return [[-x] for x in lits]
    if k == 1 and n <= 6:
        return at_most_one_pairwise(lits)

    # s[i][j] true <=> at least j+1 of lits[0..i] are true (Sinz 2005)
    s = [[formula.allocate() for _ in range(k)] for _ in range(n - 1)]
    clauses: list[list[int]] = [[-lits[0], s[0][0]]]
    for j in range(1, k):
        clauses.append([-s[0][j]])
    for i in range(1, n - 1):
        clauses.append([-lits[i], s[i][0]])
        clauses.append([-s[i - 1][0], s[i][0]])
        for j in range(1, k):
            clauses.append([-lits[i], -s[i - 1][j - 1], s[i][j]])
            clauses.append([-s[i - 1][j], s[i][j]])
        clauses.append([-lits[i], -s[i - 1][k - 1]])
    clauses.append([-lits[n - 1], -s[n - 2][k - 1]])
    return clauses


def unary_sum(formula: CnfFormula, left: list[int], right: list[int], total: list[int]) -> None:
    """The running-sum step of a totalizer (Bailleux & Boufkhad 2003), grown
    in place: extend the register `total` of the sum of two sorted unary
    counts of one length n to n bits.

    left[p-1] and right[q-1] read "at least p" and "at least q". Each new
    bit r[j-1] gets the clauses left[j-1] -> r[j-1], right[j-1] -> r[j-1]
    and left[p-1] & right[q-1] -> r[j-1] for p + q = j. The bits already
    there keep their clauses, which only ever name bits up to their own, so
    growing the counts by one step adds one bit and its clauses. Nothing
    bounds the sum: r[n-1] reads "at least n", and a caller bounds the sum
    below n by asserting -r[n-1]. r is only a lower bound of the sum: a
    spurious true bit can only forbid more.
    """
    for j in range(len(total) + 1, len(left) + 1):
        r = formula.allocate()
        total.append(r)
        formula.add([-left[j - 1], r])
        formula.add([-right[j - 1], r])
        for p in range(1, j):
            formula.add([-left[p - 1], -right[j - p - 1], r])


def to_dimacs(formula: CnfFormula) -> str:
    """Standard DIMACS CNF, with a `c var` comment line per label. Raises
    ValueError when the formula is labelled, but not every variable."""
    if 0 < len(formula.labels) != formula.variable_count:
        raise ValueError(f"{len(formula.labels)} labels for {formula.variable_count} variables")
    out = [f"c var {v} " + " ".join(map(str, label))
           for v, label in enumerate(formula.labels, start=1)]
    out.append(f"p cnf {formula.variable_count} {len(formula.clauses)}")
    for clause in formula.clauses:
        out.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(out) + "\n"


def _ints(tokens: list[str], ln: int) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"line {ln}: {exc}") from None


def _label_field(token: str) -> int | str:
    try:
        return int(token)
    except ValueError:
        return token


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF, restoring the labels from `c var` comments.

    Comments never change what the CNF means: a `c var` line whose index is
    not a decimal integer is a plain comment, and a label is only a name."""
    labelled: dict[int, tuple] = {}
    n_vars = None
    lits: list[int] = []
    pending: list[list[int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("c"):
            tokens = line.split()
            if len(tokens) >= 3 and tokens[1] == "var" and tokens[2].isdecimal():
                labelled[int(tokens[2])] = tuple(map(_label_field, tokens[3:]))
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise ValueError(f"line {ln}: second problem line {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {ln}: malformed problem line {line!r}")
            n_vars, n_clauses = _ints(parts[2:], ln)
            if n_vars < 0 or n_clauses < 0:
                raise ValueError(f"line {ln}: negative count in problem line {line!r}")
            continue
        if n_vars is None:
            raise ValueError(f"line {ln}: clause before problem line")
        for lit in _ints(line.split(), ln):
            if lit == 0:
                if not lits:
                    raise ValueError(f"line {ln}: empty clause")
                pending.append(lits)
                lits = []
            elif abs(lit) > n_vars:
                raise ValueError(f"line {ln}: literal {lit} beyond the {n_vars} declared variables")
            else:
                lits.append(lit)
    if lits:
        raise ValueError("trailing clause without terminating 0")
    if n_vars is None:
        raise ValueError("missing problem line")
    if len(pending) != n_clauses:
        raise ValueError(f"problem line declares {n_clauses} clauses, found {len(pending)}")
    labels = [labelled.get(v, ("aux", "dimacs", v)) for v in range(1, n_vars + 1)]
    return CnfFormula(n_vars, pending, labels)
