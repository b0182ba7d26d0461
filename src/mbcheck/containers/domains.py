"""Bounded abstract domains for the completeness probe.

A domain enumerates abstract pre-states and candidate post-values for the
sequence-plus-index container models. Bounds are small on purpose: the probe
is a desk check, not a verifier. Two admitted post-states for one pre-state
prove a contract incomplete. "No admissible post-state" holds only relative
to the candidate domain: post-state sequences run up to twice ``max_len``
elements, so a contract whose only admissible exit is longer reads as
inconclusive here. A routine judged complete is complete up to the bound.
"""

from __future__ import annotations

import functools
import itertools

import mbcheck.values as V
from mbcheck.engine.specs import TARGET
from mbcheck.errors import ConfigError

# queries a boolean-valued routine may produce; everything else gets items
_BOOL_ROUTINES = frozenset(["off", "is_equal", "has", "is_empty"])


# the default bounds: the longest pre-state sequence and the alphabet size
DEFAULT_MAX_LEN = 3
DEFAULT_ALPHABET = 2

# what a pre-state holds for a present reference argument, whose model lives
# in its role map; one shared value lets the probe compare arguments by value
REF_ARG = object()

# most candidate sequences and sequence elements a domain may build, and
# most role states (a pre-state sequence with a cursor) it may enumerate;
# larger bounds are refused before anything is built
MAX_SEQUENCES = 1_000_000
MAX_ELEMENTS = 10_000_000
MAX_ROLE_STATES = 100_000


def _all_seqs(max_len, alphabet, unique=False):
    """Every sequence over ``range(alphabet)`` of at most ``max_len``
    elements (no repeated element when ``unique``), shortest first, each
    length in lexicographic order."""
    out = [V.EMPTY_SEQ]
    for n in range(1, max_len + 1):
        for combo in itertools.product(range(alphabet), repeat=n):
            if unique and len(set(combo)) != n:
                continue
            out.append((V.SEQ, combo))  # a tuple of exact ints is a sequence payload
    return out


def _sizes(max_len, alphabet):
    """``(sequences, elements)`` over every sequence of at most ``max_len``
    elements over ``range(alphabet)``, or None once either passes its
    limit."""
    seqs, elements, term = 1, 0, 1
    for n in range(1, max_len + 1):
        term *= alphabet
        seqs += term
        elements += n * term
        if seqs > MAX_SEQUENCES or elements > MAX_ELEMENTS:
            return None
    return seqs, elements


class SequenceDomain:
    """Abstract domain for one class whose strong model is sequence + index.

    A reference argument is of the target's class, so ``pre_states`` takes
    both roles' states from ``class_spec``. Objects whose model lacks an
    index query (the stack and the queue) get sequence-only states; a spec
    whose model lacks a sequence query is refused. A role's states are those
    on which the spec's model invariants (``kind="model"``) hold, filtered as
    they are reached, so ``unique`` only narrows the enumeration: it drops
    repeated elements from the pre-state and candidate sequences before any
    invariant runs. A present reference argument is ``REF_ARG`` in every
    pre-state. Candidate values and results depend on the query and the
    routine alone. Nothing here reads ``role_specs`` or ``role_spec``; they
    stay for ``perfbench/``, which builds the domain with a class-name map
    and wraps ``role_spec`` by name.
    """

    def __init__(
        self, role_specs, max_len=DEFAULT_MAX_LEN, alphabet=DEFAULT_ALPHABET, unique=False
    ):
        if max_len < 1 or alphabet < 1:
            raise ConfigError(
                "probe bounds must be at least 1, got max_len=%d alphabet=%d"
                % (max_len, alphabet)
            )
        # the duplicate-free sequences are a subset, so these bound them too;
        # a pre-state sequence of n elements has at most n + 2 cursors
        pre = _sizes(2 * max_len, alphabet) and _sizes(max_len, alphabet)
        if pre is None or pre[1] + 2 * pre[0] > MAX_ROLE_STATES:
            raise ConfigError(
                "probe bounds max_len=%d alphabet=%d ask for more than "
                "%d candidate sequences, %d sequence elements or %d role states"
                % (max_len, alphabet, MAX_SEQUENCES, MAX_ELEMENTS, MAX_ROLE_STATES)
            )
        self.role_specs = dict(role_specs)
        self.max_len = max_len
        self.alphabet = alphabet
        self.unique = unique
        self.pre_seqs = _all_seqs(max_len, alphabet, unique)
        self.index_values = list(range(2 * max_len + 2))

    @functools.cached_property
    def value_seqs(self):
        """The candidate exit sequences, up to twice ``max_len`` elements,
        built when first asked for: a probe that frees no sequence query
        never needs them."""
        return _all_seqs(2 * self.max_len, self.alphabet, self.unique)

    def role_spec(self, ref_class):
        spec = self.role_specs.get(ref_class)
        if spec is None:
            raise ConfigError("domain has no spec for class %r" % (ref_class,))
        return spec

    def _role_states(self, spec):
        """The role states of ``spec`` that satisfy its model invariants,
        each filtered when reached."""
        if "sequence" not in spec.model_names:
            raise ConfigError("the completeness probe covers the sequence containers only")
        invariants = spec.model_invariants
        if "index" in spec.model_names:
            every = (
                {"sequence": s, "index": i}
                for s in self.pre_seqs
                for i in range(V.seq_count(s) + 2)
            )
        else:
            every = ({"sequence": s} for s in self.pre_seqs)
        return (m for m in every if all(cl.fn(m, None) for cl in invariants))

    def pre_states(self, class_spec, routine):
        """Yield ``(roles, args)``: a map from role name to model map, and
        the argument tuple."""
        refs = routine.ref_roles
        if len(refs) > 1:
            raise ConfigError(
                "%s.%s has %d reference parameters; the domain takes at most one"
                % (class_spec.name, routine.name, len(refs))
            )
        pools = [
            range(self.alphabet) if p.kind == "item" else range(-1, self.max_len + 2)
            for p in routine.params
            if p.kind != "ref"
        ]
        plain_args = list(itertools.product(*pools))
        if not refs:
            for tm in self._role_states(class_spec):
                for args in plain_args:
                    yield {TARGET: tm}, args
            return

        ((k, role),) = refs
        # the arguments with the reference present, then void
        present = [args[:k] + (REF_ARG,) + args[k:] for args in plain_args]
        void = [args[:k] + (None,) + args[k:] for args in plain_args]
        arg_states = list(self._role_states(class_spec))
        for tm in self._role_states(class_spec):
            for am in arg_states:
                for args in present:
                    yield {TARGET: tm, role: am}, args
            for args in void:
                yield {TARGET: tm}, args

    def value_choices(self, qname):
        return self.value_seqs if qname == "sequence" else self.index_values

    def result_choices(self, routine):
        if routine.name in _BOOL_ROUTINES:
            return (False, True)
        return tuple(range(self.alphabet))
