"""RPL011 true positives: literal event kinds at emit sites."""


def run_step(tracer, t, item, node):
    tracer.emit("deliver", t, item=item, node=node)  # literal kind
    tracer.emit("contact_drop", t, a=node, b=node)  # literal kind
    tracer.emit("replica_add", t, node=node, item=item)  # literal kind


def settle(self, t):
    self.tracer.emit("settle", t, reason="horizon")  # literal kind
