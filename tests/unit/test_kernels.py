"""Byte-exactness tests for the hot-path kernels.

Every optimized kernel must be byte-identical to the straight-line
reference implementation it replaced — across the RFC 4231 known-answer
vectors, random keys/lengths (including the cache-hit repeated-key
shape the hot paths actually see), and the decoded-directory cache.
"""

import hmac as stdlib_hmac
import random
from collections import Counter
from unittest import mock

from repro.crypto.aead import AesCtrHmacAead, StreamHmacAead
from repro.crypto.aes import AES
from repro.crypto.hmac import hmac_sha256, hmac_sha256_reference
from repro.crypto.kernels import xor_bytes, xor_bytes_reference
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_transform,
    ctr_transform_reference,
)
from repro.sim import Simulation
from repro.storage import BlockDevice, BufferCache, LocalFileSystem

# RFC 4231 test cases (full 32-byte outputs; case 5 is truncated and
# case numbering follows the RFC).
_RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131,
     b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger t"
     b"han block-size data. The key needs to be hashed before being use"
     b"d by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


class TestHmacKernel:
    def test_rfc4231_vectors(self):
        for key, msg, expected in _RFC4231:
            assert hmac_sha256(key, msg).hex() == expected
            assert hmac_sha256_reference(key, msg).hex() == expected

    def test_matches_reference_and_stdlib_random(self):
        rng = random.Random(4231)
        for _ in range(200):
            key = rng.randbytes(rng.choice([1, 16, 32, 63, 64, 65, 200]))
            msg = rng.randbytes(rng.randrange(0, 400))
            fast = hmac_sha256(key, msg)
            assert fast == hmac_sha256_reference(key, msg)
            assert fast == stdlib_hmac.new(key, msg, "sha256").digest()

    def test_repeated_key_hits_cache(self):
        # The hot-path shape: one key, many messages.  Interleave with
        # other keys so cache entries coexist.
        key = b"\x42" * 32
        rng = random.Random(7)
        for i in range(50):
            msg = rng.randbytes(i)
            assert hmac_sha256(key, msg) == hmac_sha256_reference(key, msg)
            other = rng.randbytes(16)
            assert hmac_sha256(other, msg) == \
                hmac_sha256_reference(other, msg)

    def test_cache_overflow_resets_safely(self):
        from repro.crypto import hmac as hmac_mod

        rng = random.Random(99)
        for _ in range(hmac_mod._MAX_CACHED_KEYS + 10):
            key = rng.randbytes(32)
            assert hmac_sha256(key, b"x") == hmac_sha256_reference(key, b"x")
        assert len(hmac_mod._state_cache) <= hmac_mod._MAX_CACHED_KEYS + 1


class TestXorKernel:
    def test_matches_reference(self):
        rng = random.Random(1)
        for n in (0, 1, 7, 8, 9, 16, 31, 32, 33, 255, 4096):
            data = rng.randbytes(n)
            stream = rng.randbytes(n + rng.randrange(0, 40))
            assert xor_bytes(data, stream) == \
                xor_bytes_reference(data, stream)

    def test_involution(self):
        data, stream = b"hello world", b"0123456789abcdef"
        assert xor_bytes(xor_bytes(data, stream), stream) == data


class TestAeadKernel:
    def test_transform_matches_reference(self):
        aead = StreamHmacAead(b"k" * 32)
        rng = random.Random(2)
        for n in (0, 1, 31, 32, 33, 63, 64, 65, 1000, 4096):
            nonce = rng.randbytes(16)
            data = rng.randbytes(n)
            assert aead._transform(nonce, data) == \
                aead._transform_reference(nonce, data)

    def test_seal_open_roundtrip_both_suites(self):
        rng = random.Random(3)
        for suite in (StreamHmacAead(b"s" * 32), AesCtrHmacAead(b"a" * 32)):
            for n in (0, 1, 100, 1000):
                nonce = rng.randbytes(16)
                data = rng.randbytes(n)
                sealed = suite.seal(nonce, data, b"aad")
                assert suite.open(nonce, sealed, b"aad") == data


class TestCtrKernel:
    def test_matches_reference(self):
        cipher = AES(b"K" * 32)
        rng = random.Random(5)
        for n in (0, 1, 15, 16, 17, 100, 256, 4096):
            nonce = rng.randbytes(16)
            data = rng.randbytes(n)
            for initial in (0, 1, 1 << 32):
                assert ctr_transform(cipher, nonce, data, initial) == \
                    ctr_transform_reference(cipher, nonce, data, initial)

    def test_nist_sp800_38a_ctr_vector(self):
        # NIST SP 800-38A F.5.5 (AES-256 CTR), first block.
        key = bytes.fromhex(
            "603deb1015ca71be2b73aef0857d7781"
            "1f352c073b6108d72d9810a30914dff4"
        )
        counter_block = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        expected = bytes.fromhex("601ec313775789a5b7a7f504bbf3d228")
        nonce = counter_block[:8]
        initial = int.from_bytes(counter_block[8:], "big")
        out = ctr_transform(AES(key), nonce, plaintext, initial)
        assert out == expected
        assert out == ctr_transform_reference(AES(key), nonce, plaintext,
                                              initial)

    def test_cbc_roundtrip(self):
        cipher = AES(b"C" * 32)
        rng = random.Random(6)
        for n in (0, 1, 15, 16, 100):
            iv = rng.randbytes(16)
            data = rng.randbytes(n)
            assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) \
                == data


class TestDirCache:
    def _fs(self):
        sim = Simulation()
        device = BlockDevice(sim, n_blocks=4096)
        cache = BufferCache(sim, device, capacity_blocks=256)
        return sim, LocalFileSystem(sim, cache)

    def test_lookups_after_mutations_stay_correct(self):
        sim, fs = self._fs()

        def scenario():
            yield from fs.mkdir("/d")
            for i in range(20):
                yield from fs.create(f"/d/f{i:02d}")
            names = yield from fs.readdir("/d")
            assert names == [f"f{i:02d}" for i in range(20)]
            # Repeated readdir exercises the cache-hit path.
            assert (yield from fs.readdir("/d")) == names
            yield from fs.unlink("/d/f03")
            yield from fs.rename("/d/f04", "/d/renamed")
            names = yield from fs.readdir("/d")
            assert "f03" not in names and "f04" not in names
            assert "renamed" in names
            yield from fs.mkdir("/d/sub")
            yield from fs.rename("/d/renamed", "/d/sub/renamed")
            assert (yield from fs.readdir("/d/sub")) == ["renamed"]
            yield from fs.unlink("/d/sub/renamed")
            yield from fs.rmdir("/d/sub")
            assert "sub" not in (yield from fs.readdir("/d"))
            return True

        assert sim.run_process(scenario())

    def test_caller_mutation_does_not_corrupt_cache(self):
        sim, fs = self._fs()

        def scenario():
            yield from fs.mkdir("/d")
            yield from fs.create("/d/a")
            entries = yield from fs._load_dir(
                fs._inodes[(yield from fs.getattr("/d")).ino]
            )
            entries["phantom"] = 999  # mutate the returned view only
            names = yield from fs.readdir("/d")
            assert names == ["a"]
            return True

        assert sim.run_process(scenario())

    def test_deleted_dir_inos_leave_cache(self):
        sim, fs = self._fs()

        def scenario():
            yield from fs.mkdir("/gone")
            yield from fs.readdir("/gone")
            ino = (yield from fs.getattr("/gone")).ino
            assert fs._dir_cache[ino] == (0, (), {})
            yield from fs.rmdir("/gone")
            assert ino not in fs._dir_cache
            return True

        assert sim.run_process(scenario())

    def test_entry_holds_the_cached_block_objects(self):
        sim, fs = self._fs()

        def scenario():
            yield from fs.mkdir("/d")
            yield from fs.create("/d/a")
            inode = fs._inodes[(yield from fs.getattr("/d")).ino]
            size, blocks, entries = fs._dir_cache[inode.ino]
            assert size == inode.size > 0
            assert [block_no for block_no, _ in blocks] == inode.blocks
            assert all(fs.cache.held(block_no) is data
                       for block_no, data in blocks)
            assert entries == {"a": (yield from fs.getattr("/d/a")).ino}
            return True

        assert sim.run_process(scenario())

    def test_rewritten_block_is_reread_not_trusted(self):
        # Equal bytes in a new object: the cache cannot vouch for it, so
        # the lookup reads and parses again (charging the same hit).
        sim, fs = self._fs()

        def scenario():
            yield from fs.mkdir("/d")
            yield from fs.create("/d/a")
            inode = fs._inodes[(yield from fs.getattr("/d")).ino]
            (block_no, data), = fs._dir_cache[inode.ino][1]
            yield from fs.cache.write(block_no, bytearray(data))
            assert fs.cache.held(block_no) is not data
            reads = Counter()
            with _counting_dir_reads(reads):
                hits = fs.cache.hits
                assert (yield from fs.exists("/d/a"))
            assert reads == {inode.ino: 1}
            assert fs.cache.hits - hits == 2  # "/" and "/d"
            return True

        assert sim.run_process(scenario())

    def test_repeated_lookups_read_each_directory_at_most_once(self):
        # Before the block-validated cache every lookup read each of the
        # four directories on the path: 200 reads for these 50 getattrs.
        sim, fs = self._fs()
        reads = Counter()

        def scenario():
            yield from fs.mkdir("/a")
            yield from fs.mkdir("/a/b")
            yield from fs.mkdir("/a/b/c")
            yield from fs.create("/a/b/c/f")
            hits = fs.cache.hits
            with _counting_dir_reads(reads):
                for _ in range(50):
                    yield from fs.getattr("/a/b/c/f")
            # The same buffer-cache hits a read of each directory makes.
            assert fs.cache.hits - hits == 50 * 4
            return True

        assert sim.run_process(scenario())
        assert len(reads) <= 4 and all(n <= 1 for n in reads.values()), reads


def _counting_dir_reads(reads: Counter):
    """Count ``_read_inode_data`` calls on directory inodes, by ino."""
    real = LocalFileSystem._read_inode_data

    def counting(fs, inode, offset, size):
        if inode.is_dir:
            reads[inode.ino] += 1
        return real(fs, inode, offset, size)

    return mock.patch.object(LocalFileSystem, "_read_inode_data", counting)
