"""RPL011 clean pass: event kinds come from the schema registry."""

from repro.obs import events as trace_events
from repro.obs import events as ev

DELIVER = trace_events.DELIVER


def run_step(tracer, t, item, node):
    tracer.emit(trace_events.DELIVER, t, item=item, node=node)
    tracer.emit(DELIVER, t, item=item, node=node)
    tracer.emit(ev.REPLICA_ADD, t, node=node, item=item, evicted=None)


def emit_unrelated(channel, payload):
    # Non-string first arguments are someone else's emit(); not a kind.
    channel.emit(payload)
    channel.emit(42, payload)
