"""Fixed-size round-robin striping — the classic PFS layout (DEF).

A file is cut into ``stripe``-byte units distributed over the servers
in round-robin order (Fig. 1 of the paper).  This is the OrangeFS /
Lustre default that the DEF baseline uses with a 64 KB stripe.

Fixed striping is varied striping's one-class case: the servers are
the only class, with ``h = stripe`` and ``s = 0``, so
:class:`~repro.layouts.varied.VariedStripeLayout` does the stripe
arithmetic, the batch kernel and the value equality for both.
"""

from __future__ import annotations

from typing import Sequence

from .varied import VariedStripeLayout

__all__ = ["FixedStripeLayout"]


class FixedStripeLayout(VariedStripeLayout):
    """Round-robin fixed striping over an ordered server list."""

    def __init__(self, servers: Sequence[int], stripe: int, obj: str = "file") -> None:
        super().__init__(servers, (), stripe, 0, obj)

    @property
    def stripe(self) -> int:
        """Bytes per stripe unit."""
        return self.h

    def __repr__(self) -> str:
        return (
            f"FixedStripeLayout(servers={list(self.hservers)}, "
            f"stripe={self.stripe}, obj={self.obj!r})"
        )
