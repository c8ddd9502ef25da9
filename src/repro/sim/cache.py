"""Per-node content cache with random replacement and a sticky slot.

Matches the paper's Section 6.1 semantics: every server has ``rho``
equal-size slots; a new replica overwrites a uniformly random slot; each
item may have one *sticky replica* somewhere in the network that is never
evicted (so no item can be lost to stochastic extinction).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set

import numpy as np

from ..errors import SimulationError

__all__ = ["Cache"]


class Cache:
    """A fixed-capacity item cache with random replacement.

    Not thread-safe; owned by a single simulation.
    """

    __slots__ = ("_capacity", "_items", "_evictable", "_sticky")

    def __init__(self, capacity: int, sticky: Optional[int] = None) -> None:
        if capacity <= 0:
            raise SimulationError(f"cache capacity must be > 0, got {capacity}")
        self._capacity = capacity
        self._items: Set[int] = set()
        self._evictable: List[int] = []
        self._sticky: Optional[int] = None
        if sticky is not None:
            self.pin(sticky)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def sticky(self) -> Optional[int]:
        """The pinned item, if any."""
        return self._sticky

    def __contains__(self, item: int) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self._capacity

    def items(self) -> Set[int]:
        """A snapshot copy of the cached item ids."""
        return set(self._items)

    def live_view(self) -> Set[int]:
        """The live backing set of cached item ids (do not mutate).

        Every mutation path updates the set in place, so its identity is
        stable for the cache's lifetime — the engine's flat cache table
        aliases it to test membership without going through the cache.
        """
        return self._items

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def pin(self, item: int) -> None:
        """Make *item* this cache's sticky (never-evicted) entry.

        The item is inserted if absent; a cache holds at most one sticky
        item (re-pinning replaces the protection, not the content).
        """
        if self._sticky is not None and self._sticky != item:
            # Demote the old sticky entry to evictable.
            if self._sticky in self._items:
                self._evictable.append(self._sticky)
        if item not in self._items:
            if self.is_full:
                raise SimulationError(
                    "cannot pin into a full cache; seed sticky items first"
                )
            self._items.add(item)
        else:
            self._evictable.remove(item)
        self._sticky = item

    def add(self, item: int) -> None:
        """Insert *item* into a non-full cache (seeding only)."""
        if item in self._items:
            return
        if self.is_full:
            raise SimulationError("cache full; use insert() with an RNG")
        self._items.add(item)
        self._evictable.append(item)

    def insert(self, item: int, rng: np.random.Generator) -> Optional[int]:
        """Insert *item*, evicting a uniform random non-sticky entry.

        Returns the evicted item id, or ``None`` if no eviction happened
        (item already present, cache not full, or nothing evictable).
        When the cache is full and every slot is sticky, the insertion is
        refused and the cache is unchanged (``item not in cache`` after).
        """
        if item in self._items:
            return None
        if not self.is_full:
            self._items.add(item)
            self._evictable.append(item)
            return None
        if not self._evictable:
            return None  # every slot pinned; insertion refused
        index = int(rng.integers(len(self._evictable)))
        victim = self._evictable[index]
        self._evictable[index] = item
        self._items.remove(victim)
        self._items.add(item)
        return victim

    def discard(self, item: int) -> bool:
        """Remove *item* if present and not sticky; return whether removed.

        Used by :meth:`Simulation.remove_copy` and test set-up; the
        shipped replication protocols never remove content explicitly.
        """
        if item not in self._items or item == self._sticky:
            return False
        self._items.remove(item)
        self._evictable.remove(item)
        return True

    def fill_random(
        self, candidates: Iterable[int], rng: np.random.Generator
    ) -> List[int]:
        """Fill remaining slots with distinct items drawn from *candidates*.

        Returns the items added.  Used by initial seeding.
        """
        pool = [c for c in candidates if c not in self._items]
        added: List[int] = []
        free = self._capacity - len(self._items)
        if free <= 0 or not pool:
            return added
        chosen = rng.choice(len(pool), size=min(free, len(pool)), replace=False)
        for index in np.atleast_1d(chosen):
            item = pool[int(index)]
            self._items.add(item)
            self._evictable.append(item)
            added.append(item)
        return added
