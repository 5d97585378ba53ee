"""CNF construction: variable labels, clause store, cardinality encodings, DIMACS.

Each variable carries a label, a plain tuple:
    ("X", agent, vertex, t)        agent occupies vertex at step t
    ("aux", tag, n)                auxiliary (settled flags, running sums, cardinality counters)
A label only names its variable in DIMACS `c var` comments; nothing finds a
variable by its label (the encoder keeps its own map of the vertex variables).
A move u->v between t and t+1 has no label of its own: it is the pair of
vertex variables (agent, u, t) and (agent, v, t+1).
Literals are nonzero signed ints in DIMACS convention, taken as given by
`CnfFormula`: `parse_dimacs` checks each literal of a file as it reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

VERTEX = "X"
AUX = "aux"

VarKey = tuple


def var_key_vertex(agent: int, vertex: int, t: int) -> VarKey:
    return (VERTEX, agent, vertex, t)


@dataclass
class CnfFormula:
    """Single-owner mutable builder for a CNF formula."""

    variable_count: int = 0
    clauses: list[list[int]] = field(default_factory=list)
    _keys: list[VarKey | None] = field(default_factory=lambda: [None])  # 1-based

    def allocate(self, key: VarKey) -> int:
        """A new variable labelled `key`."""
        self._keys.append(key)
        self.variable_count += 1
        return self.variable_count

    def key_of(self, index: int) -> VarKey:
        return self._keys[index]

    def new_aux(self, tag: str) -> int:
        return self.allocate((AUX, tag, self.variable_count + 1))

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
    s = [[formula.new_aux("seq") for _ in range(k)] for _ in range(n - 1)]
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


def unary_sum(formula: CnfFormula, left: list[int], right: list[int], total: list[int],
              tag: str) -> None:
    """The running-sum step of a totalizer (Bailleux & Boufkhad 2003), grown
    in place: extend the register `total` of the sum of two sorted unary
    counts of one length n to n bits.

    left[p-1] and right[q-1] read "at least p" and "at least q". Each new bit
    r[j-1], labelled (AUX, tag, j), gets the clauses left[j-1] -> r[j-1],
    right[j-1] -> r[j-1] and left[p-1] & right[q-1] -> r[j-1] for p + q = j.
    The bits already there keep their clauses, which only ever name bits up
    to their own, so growing the counts by one step adds one bit and its
    clauses. Nothing bounds the sum: r[n-1] reads "at least n", and a caller
    bounds the sum below n by asserting -r[n-1]. r is only a lower bound of
    the sum: a spurious true bit can only forbid more.
    """
    for j in range(len(total) + 1, len(left) + 1):
        r = formula.allocate((AUX, tag, j))
        total.append(r)
        formula.add([-left[j - 1], r])
        formula.add([-right[j - 1], r])
        for p in range(1, j):
            formula.add([-left[p - 1], -right[j - p - 1], r])


def _key_to_comment(idx: int, key: VarKey) -> str:
    return f"c var {idx} " + " ".join(str(f) for f in key)


def _comment_to_key(tokens: list[str]) -> VarKey:
    def conv(tok: str):
        try:
            return int(tok)
        except ValueError:
            return tok

    return tuple(conv(t) for t in tokens)


def to_dimacs(formula: CnfFormula) -> str:
    """Standard DIMACS CNF; `c var` comment lines carry the labels."""
    out = [_key_to_comment(idx, formula.key_of(idx))
           for idx in range(1, formula.variable_count + 1)]
    out.append(f"p cnf {formula.variable_count} {len(formula.clauses)}")
    for clause in formula.clauses:
        out.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(out) + "\n"


def _ints(tokens: list[str], ln: int) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"line {ln}: {exc}") from None


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF, restoring the labels from `c var` comments.

    Comments never change what the CNF means: a `c var` line whose index is
    not a decimal integer is a plain comment, and a label is only a name."""
    formula = CnfFormula()
    keyed: dict[int, VarKey] = {}
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
                keyed[int(tokens[2])] = _comment_to_key(tokens[3:])
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
    for idx in range(1, n_vars + 1):
        formula.allocate(keyed.get(idx, (AUX, "dimacs", idx)))
    formula.add_all(pending)
    return formula
