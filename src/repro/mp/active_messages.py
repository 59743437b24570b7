"""Active-message layer (the reproduction's CMAML).

An active message is a single 20-byte packet naming a handler that runs
at the receiver when it polls; the handler integrates the message into
the computation directly (von Eicken et al.). As in the paper's
simulator, handlers are invoked directly at poll points without kernel
traps — the paper notes CMMD polls heavily, so this matches its
methodology.

Handlers are generator functions ``handler(ctx, *args)`` registered per
node. They run in the *receiver's* library context and may themselves
send messages or touch memory.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator

from repro.mp.netiface import Packet

Handler = Callable[..., Generator]


class AmLayer:
    """Per-node handler registry and send/dispatch engine."""

    def __init__(self, ctx: "repro.mp.api.MpContext") -> None:  # noqa: F821
        self.ctx = ctx
        self._handlers: Dict[str, Handler] = {}

    def register(self, name: str, handler: Handler) -> None:
        """Register a handler; names are per-node and must be unique."""
        if name in self._handlers:
            raise ValueError(f"handler {name!r} already registered on node "
                             f"{self.ctx.pid}")
        self._handlers[name] = handler

    def send(
        self,
        dest: int,
        handler: str,
        *args: Any,
        data_bytes: int = 0,
    ) -> Generator:
        """Send one active message (one packet).

        ``data_bytes`` declares how much of the 16-byte payload carries
        application data (the rest, plus the 4-byte header, is control).
        """
        ctx = self.ctx
        mp = ctx.params.mp
        if data_bytes > mp.packet_payload_bytes:
            raise ValueError("an active message carries at most one payload")
        with ctx.stats.context("lib"):
            yield from ctx.compute(mp.lib_am_send_cycles)
            ctx.stats.count("active_messages")
            yield from ctx.inject(
                dest,
                handler,
                payload=args,
                npackets=1,
                data_bytes=data_bytes,
            )

    def send_train(
        self,
        dest: int,
        handler: str,
        payload: Any,
        nbytes: int,
    ) -> Generator:
        """Send a multi-packet active message carrying ``nbytes`` of data.

        Used for replies larger than one packet's payload (e.g. MSE's
        body-value replies); per-packet library bookkeeping applies
        beyond the first packet.
        """
        ctx = self.ctx
        mp = ctx.params.mp
        npackets = ctx.packets_for(nbytes)
        with ctx.stats.context("lib"):
            yield from ctx.compute(
                mp.lib_am_send_cycles + (npackets - 1) * mp.lib_send_packet_cycles
            )
            ctx.stats.count("active_messages")
            yield from ctx.inject(
                dest,
                handler,
                payload=payload,
                npackets=npackets,
                data_bytes=nbytes,
            )

    def dispatch(self, packet: Packet) -> Generator:
        """Run the handler for a received packet (train).

        Called from :meth:`MpContext.poll`; handler bookkeeping is
        charged in library context so it lands in Lib Comp: the
        fixed active-message dispatch cost for a single packet, or the
        per-packet receive bookkeeping for a train.
        """
        ctx = self.ctx
        handler = self._handlers.get(packet.tag)
        if handler is None:
            raise KeyError(
                f"node {ctx.pid}: no handler {packet.tag!r} "
                f"for packet from {packet.src}"
            )
        with ctx.stats.context("lib"):
            if packet.count == 1:
                yield from ctx.compute(ctx.params.mp.lib_am_handler_cycles)
            else:
                yield from ctx.compute(
                    packet.count * ctx.params.mp.lib_recv_packet_cycles
                )
            yield from handler(ctx, packet)
