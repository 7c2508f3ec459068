#!/usr/bin/env python3
"""Gateway quickstart: Scalia served over HTTP.

Boots the S3-style gateway in-process on an ephemeral port, then drives it
exactly like a remote client would: keep-alive HTTP, tenant header,
PUT/GET/HEAD/list and an admin tick.

The same server is available standalone via ``repro serve``:

    $ PYTHONPATH=src python -m repro serve --port 8090
    $ curl -X PUT -H 'x-scalia-tenant: alice' --data-binary @cat.gif \
          http://127.0.0.1:8090/photos/cat.gif
    $ curl -H 'x-scalia-tenant: alice' http://127.0.0.1:8090/photos?list
"""

from repro.gateway import GatewayClient, ScaliaGateway


def main() -> None:
    with ScaliaGateway(port=0).start() as gateway:
        host, port = gateway.address
        print(f"gateway   : {gateway.url} (in-process, ephemeral port)")

        # Two tenants reuse the same friendly bucket name without colliding:
        # the namespace mapper hashes tenant:bucket into disjoint containers.
        alice = GatewayClient(host, port, tenant="alice")
        bob = GatewayClient(host, port, tenant="bob")

        payload = b"Scalia adapts data placement to its access pattern." * 100
        info = alice.put("photos", "vacation.gif", payload, mime="image/gif")
        bob.put("photos", "vacation.gif", b"bob's unrelated bytes")
        print(f"alice PUT : {info['size']} bytes -> {info['placement']}")

        assert alice.get("photos", "vacation.gif") == payload
        meta = alice.head("photos", "vacation.gif")
        print(f"alice HEAD: size={meta['size']} class={meta['class'][:8]}…")
        print(f"isolation : bob's photos/{bob.list('photos')[0]} is "
              f"{len(bob.get('photos', 'vacation.gif'))} bytes, not alice's")

        # Advance simulated time (the periodic optimizer runs per period).
        tick = alice.tick(24)
        print(f"tick 24h  : period={tick['period']} "
              f"migrations={tick['migrations']}")

        stats = alice.stats()
        print(f"stats     : ops={stats['ops']} cost=${stats['cost_total']:.6f}")
        alice.close()
        bob.close()


if __name__ == "__main__":
    main()
