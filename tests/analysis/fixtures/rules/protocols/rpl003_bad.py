"""RPL003 true positives: protocol mutating engine-owned node state."""


class RoguePlacement:
    name = "ROGUE"

    def on_fulfill(self, sim, t, requester, provider, item, counter):
        requester.cache.insert(item, sim.rng)
        requester.is_server = False
        provider.outstanding[item] = []
        del provider.outstanding[item]
        provider.outstanding.pop(item, None)

    def after_contact(self, sim, t, a, b):
        from .helpers import make_request

        a.add_request(make_request(0, a.node_id, t))
        b.cache.discard(3)
