"""Identifier pool: the control plane's names for the core ``BasisDictionary``.

The paper's rule (Section 5: an unused identifier while there is one, else
recycle the least recently used binding) is written once, in
:class:`~repro.core.dictionary.BasisDictionary`.  :class:`IdentifierPool`
is that dictionary (LRU policy) and keeps no state of its own: ``capacity``,
``clear``, ``snapshot_state`` and ``restore_state`` are the inherited ones.
"""

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.core.dictionary import BasisDictionary
from repro.exceptions import ControlPlaneError

__all__ = ["Allocation", "IdentifierPool"]


@dataclass(frozen=True)
class Allocation:
    """Result of allocating an identifier for a basis."""

    identifier: int
    evicted_basis: Optional[Hashable]
    recycled: bool


class IdentifierPool(BasisDictionary):
    """Bounded pool of identifiers with LRU recycling.

    Nothing in ``src/`` calls :meth:`touch` / :meth:`touch_basis`, so a
    binding's recency today is its install order, not data-plane activity.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ControlPlaneError(f"pool capacity must be positive, got {capacity}")
        super().__init__(capacity)

    def _check_identifier(self, identifier: int) -> None:
        if not 0 <= identifier < self.capacity:
            raise ControlPlaneError(f"identifier {identifier} not in [0, {self.capacity})")

    #: Identifier currently bound to a basis / basis bound to an identifier
    #: (``None`` when unbound), and a recency refresh given the basis.
    identifier_for = BasisDictionary.peek
    basis_for = BasisDictionary.reverse_lookup
    touch_basis = BasisDictionary.touch

    def bindings(self) -> Dict[int, Hashable]:
        """Copy of the identifier → basis map, least recently active first."""
        return {identifier: basis for basis, identifier in self.items()}

    def least_recently_used(self) -> Optional[Tuple[int, Hashable]]:
        """The binding that would be recycled next, or ``None`` when empty."""
        for basis, identifier in self._key_to_id.items():
            return identifier, basis
        return None

    def allocate(self, basis: Hashable) -> Allocation:
        """Bind ``basis`` (an already-bound one just becomes most recent),
        recycling the least recently active binding when none is free."""
        identifier, evicted = self.insert(basis)
        return Allocation(identifier, evicted, recycled=evicted is not None)

    def touch(self, identifier: int) -> None:
        """Refresh the recency of a bound *identifier* (by basis: ``touch_basis``)."""
        self.touch_basis(self.basis_for(identifier))

    def release(self, identifier: int) -> Optional[Hashable]:
        """Unbind an identifier; it is handed out again after the unused ones."""
        basis = self.basis_for(identifier)
        self.remove(basis)
        return basis
