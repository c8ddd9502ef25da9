"""RPL010 under dist/: the directory has no carve-out, polling is flagged."""

import time


def poll_until_complete(sweep, poll_interval):
    while not sweep.complete():
        time.sleep(poll_interval)
