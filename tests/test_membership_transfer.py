"""The membership hand-off (``cluster.transfer``) between real nodes.

A join, a graceful leave or a CAN re-partition moves stored items to their
new owners in one ``cluster.transfer`` per owner: parallel arrays that carry
each item's key and remaining lifetime.  The receiver stores the items under
the keys it is handed, with their lifetimes re-anchored to its own clock,
and hashes nothing; a malformed hand-off is refused whole.  Two in-process
one-node ``PierNode``\\ s stand in for the two members, and the frame goes
through the wire codec between them.
"""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.dht.naming import hash_key
from repro.dht.storage import StoredItem
from repro.net.message import Message
from repro.net.wire import message_from_wire, message_to_wire, pack, unpack
from repro.node import TRANSFER_FIELDS
from tests.test_real_hotpath import one_node_cluster

#: Where the sender's owner function places every moved item.
RECEIVER = 7
ITEMS = [("R", ("k", 1), {"v": 1}, 30.0), ("R", 2, [1, 2], 20.0),
         ("S", "three", None, 10.0), ("S", 4.5, "x", 40.0), ("R", 5, 5, 25.0)]


def no_hashing(monkeypatch):
    """Make every ``repro`` module's ``hash_key`` / ``hash_keys`` raise."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("the receiver of a transfer hashed a key")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro":
            for attribute in ("hash_key", "hash_keys"):
                if hasattr(module, attribute):
                    monkeypatch.setattr(module, attribute, refuse)


def hand_off(sender):
    """Store ``ITEMS`` at ``sender``, move them all, and return the one
    ``cluster.transfer`` it sent, as the receiver decodes it."""
    now = sender.node.now
    sender.provider.storage.store_batch([
        StoredItem(namespace, rid, instance, value, hash_key(namespace, rid),
                   now + lifetime, now, 3, 50 + instance)
        for instance, (namespace, rid, value, lifetime) in enumerate(ITEMS)])
    moving = sender.provider.storage.extract(lambda key: True)
    sent = []
    sender.node.send = lambda dst, protocol, payload=None, payload_bytes=0: sent.append(
        Message(sender.node.address, dst, protocol, payload, payload_bytes))
    sender._send_items(moving, lambda keys: [RECEIVER] * len(keys))
    (message,) = sent
    assert (message.dst, message.protocol) == (RECEIVER, "cluster.transfer")
    assert set(message.payload) == set(TRANSFER_FIELDS)
    return message_from_wire(unpack(pack(message_to_wire(message))))


def test_moved_items_keep_their_keys_and_the_receiver_hashes_nothing(monkeypatch):
    async def scenario():
        async with one_node_cluster() as sender, one_node_cluster() as receiver:
            message = hand_off(sender)
            assert sender.provider.storage.namespaces() == []
            no_hashing(monkeypatch)
            receiver._on_transfer(receiver.node, message)
            now = receiver.node.now
            stored = {(item.namespace, item.resource_id): item
                      for namespace in ("R", "S")
                      for item in receiver.provider.storage.scan(namespace, now)}
            monkeypatch.undo()
            assert receiver.known_namespaces >= {"R", "S"}
            return stored, now

    stored, now = asyncio.run(scenario())
    assert sorted(stored, key=repr) == sorted(
        ((namespace, rid) for namespace, rid, _v, _l in ITEMS), key=repr)
    for instance, (namespace, rid, value, lifetime) in enumerate(ITEMS):
        item = stored[namespace, rid]
        assert item.key == hash_key(namespace, rid)
        assert (item.instance_id, item.value, item.publisher, item.size_bytes) == (
            instance, value, 3, 50 + instance)
        # The remaining lifetime, re-anchored to the receiver's clock.
        assert item.stored_at <= now
        assert lifetime - 1.0 < item.expires_at - item.stored_at <= lifetime


FAULTS = {
    "a field missing": lambda payload: payload.pop("keys"),
    "an array short": lambda payload: payload["lifetimes"].pop(),
    "an array not a list": lambda payload: payload.update(
        publishers=tuple(payload["publishers"])),
    "a key not an int": lambda payload: payload["keys"].__setitem__(-1, "k"),
    "a namespace not a str": lambda payload: payload["namespaces"].__setitem__(
        0, 1),
    "a lifetime not a number": lambda payload: payload["lifetimes"].__setitem__(
        1, None),
    "a size not an int": lambda payload: payload["size_bytes"].__setitem__(
        2, 1.5),
    "an unhashable resourceID": lambda payload: payload[
        "resource_ids"].__setitem__(3, [4.5]),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_malformed_transfer_is_refused_whole(fault):
    async def scenario():
        async with one_node_cluster() as sender, one_node_cluster() as receiver:
            message = hand_off(sender)
            FAULTS[fault](message.payload)
            with pytest.raises((TypeError, ValueError)):
                receiver._on_transfer(receiver.node, message)
            return receiver.provider.storage.namespaces()

    assert asyncio.run(scenario()) == []
