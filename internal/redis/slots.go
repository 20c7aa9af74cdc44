package redis

import (
	"bytes"
	"encoding/gob"
	"hash/fnv"
	"strconv"
)

// Slot-addressed operations for the cluster's placement layer. The key
// space is partitioned into a fixed number of slots by FNV-1a (the same
// hash the router used when placement was "hash mod len(nodes)"); the
// cluster's slot table delegates here so the node-side copy
// path (DumpSlot on the source, replay on the target) and the router-side
// routing decision can never disagree about which slot a key is in.

// SlotForKey hashes a key onto one of nslots placement slots. This is the
// single placement hash in the tree — everything else goes through the
// cluster router's Slot, which calls this.
func SlotForKey(key string, nslots int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nslots))
}

// KV is one key/value pair streamed during a slot migration.
type KV struct {
	Key []byte
	Val []byte
}

// EncodePairs and DecodePairs are the wire form of a run of pairs: the
// payload of a CLUSTER.MIGRATE reply and the chunk a CLUSTER.IMPORT carries.
func EncodePairs(pairs []KV) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(pairs)
	return buf.Bytes(), err
}

func DecodePairs(data []byte) (pairs []KV, err error) {
	err = gob.NewDecoder(bytes.NewReader(data)).Decode(&pairs)
	return pairs, err
}

// walkSlot calls fn on every pair whose key hashes into slot (of nslots). The
// caller is switched into a VAS that maps the store.
func (c *Client) walkSlot(slot, nslots int, fn func(key, val []byte)) error {
	return c.store.ForEach(func(key, val []byte) error {
		if SlotForKey(string(key), nslots) == slot {
			fn(key, val)
		}
		return nil
	})
}

// DumpSlot returns every key/value pair whose key hashes into slot (of
// nslots), read under the shared lock — the consistent snapshot a slot
// migration streams to the new owner. The caller serializes against
// writers the same way it does for any other command on this store.
func (c *Client) DumpSlot(slot, nslots int) (out []KV, err error) {
	err = c.in(c.readH, 1, func() error {
		return c.walkSlot(slot, nslots, func(key, val []byte) { out = append(out, KV{Key: key, Val: val}) })
	})
	return out, err
}

// DelSlot removes every key in slot (of nslots) under the exclusive lock —
// the source-side cleanup after a migrated slot's ownership flipped.
// Returns how many keys were removed. Keys are collected before deletion;
// Del during a ForEach walk would relink chains under the iterator.
func (c *Client) DelSlot(slot, nslots int) (removed int, err error) {
	err = c.in(c.writeH, 1, func() error {
		var keys [][]byte
		if err := c.walkSlot(slot, nslots, func(key, _ []byte) { keys = append(keys, key) }); err != nil {
			return err
		}
		for _, k := range keys {
			ok, err := c.store.Del(k)
			if err != nil {
				return err
			}
			if ok {
				removed++
			}
		}
		return nil
	})
	return removed, err
}

// slotCommand is Run's arm for the three slot-copy commands the cluster's
// agents send whichever copy of a key range they reach:
//
//   - CLUSTER.MIGRATE <slot> <nslots>: reply with the slot's pairs, encoded
//     in one bulk string (the migration source side).
//   - CLUSTER.IMPORT <slot> <chunk>: set a chunk of migrated pairs and reply
//     with how many (the migration target side).
//   - CLUSTER.CLEANUP <slot> <nslots>: delete the slot's keys and reply with
//     how many (the source after the flip, the target after a rollback).
func (c *Client) slotCommand(op Op, args []string) []byte {
	if op == OpClusterImport {
		pairs, err := DecodePairs([]byte(args[2]))
		if err != nil {
			return EncodeError("import: decode: " + err.Error())
		}
		for _, kv := range pairs {
			if err := c.Set(string(kv.Key), kv.Val); err != nil {
				return EncodeError("import: set: " + err.Error())
			}
		}
		return EncodeInt(int64(len(pairs)))
	}
	slot, err := strconv.Atoi(args[1])
	if err != nil {
		return EncodeError("bad slot: " + args[1])
	}
	nslots, err := strconv.Atoi(args[2])
	if err != nil || nslots <= 0 || slot < 0 || slot >= nslots {
		return EncodeError("bad slot range: " + args[1] + "/" + args[2])
	}
	if op == OpClusterCleanup {
		removed, err := c.DelSlot(slot, nslots)
		if err != nil {
			return EncodeError("cleanup: " + err.Error())
		}
		return EncodeInt(int64(removed))
	}
	pairs, err := c.DumpSlot(slot, nslots)
	if err != nil {
		return EncodeError("migrate: dump: " + err.Error())
	}
	payload, err := EncodePairs(pairs)
	if err != nil {
		return EncodeError("migrate: encode: " + err.Error())
	}
	return EncodeBulk(payload)
}
