"""The ratchet's key closure in saturating form, kept as a test oracle.

The adversary holds a stage key when it can compute that key from what its
queries exposed and the envelopes some session accepted: the closure of
its knowledge under every rule, with no rule skipped (Dolev & Yao, 1983).
letterseal.mske.KeyClosure reaches that fixpoint in one ordered pass; this
reaches it by brute force, and the tests require the two to agree.

It reads the game's records itself and shares no code with KeyClosure,
only the primitives and the snapshot codec:
  intake      each revealed long-term key, each revealed draw of at least
              32 bytes (as a scalar), each revealed snapshot's ephemeral
              secret, root (of its send epoch), chain keys at their
              positions and cached keys, and each revealed stage key
  root rule   for each epoch, every root known for the epoch before it
              (epoch 0: the zero salt) against every accepted ephemeral of
              the epoch and, past epoch 0, every accepted ephemeral of the
              epoch before, wherever every exchange can be answered from a
              known secret on either side; repeated until a pass learns
              nothing
  extension   every known chain key walked up to the highest index among
              its epoch's envelopes
"""

from letterseal import crypto_suite as cs
from letterseal.linevdr import ROLE_INITIATOR, vdr_import_state
from letterseal.mske import ACCEPT
from letterseal.wire import decode_envelope


class SaturatingClosure:
    def __init__(self, game):
        self.secrets = {}  # public -> scalar
        self.roots = set()   # (epoch, rk)
        self.chains = set()  # (epoch, j, ck)
        self.mk = {}         # (epoch, j) -> key
        self._read_reveals(game)
        self.ephs = {}  # epoch -> every accepted ephemeral
        self.top = {}   # epoch -> highest accepted index
        for rec in game.sessions.values():
            for s, status in rec.status.items():
                if status == ACCEPT:
                    env = decode_envelope(rec.transcript[s])
                    self.ephs.setdefault(env.i_index, set()).add(
                        bytes(env.eph_pub))
                    self.top[env.i_index] = max(
                        self.top.get(env.i_index, -1), env.j_index)
        ini = next(rec for rec in game.sessions.values()
                   if rec.role == ROLE_INITIATOR)
        self.x, self.y = (bytes(game.parties[u][1])
                          for u in (ini.owner, ini.pid))

    def _learn(self, secret: bytes) -> None:
        scalar = cs.clamp_scalar(bytes(secret))
        self.secrets[cs.dh_to_public(scalar)] = scalar

    def _read_reveals(self, game) -> None:
        for u, revealed in game.rev_ltk.items():
            if revealed:
                self._learn(game.parties[u][0])
        for rec in game.sessions.values():
            for s in rec.rev_rand:
                if len(rec.rand_log[s]) >= 32:
                    self._learn(rec.rand_log[s][:32])
            for s in rec.rev_state:
                st = vdr_import_state(rec.state_snap[s])
                if st.self_eph is not None:
                    self._learn(st.self_eph.secret)
                self.roots.add((st.i_s, bytes(st.rk)))
                for i, j, ck in ((st.i_s, st.j_s, st.ck_send),
                                 (st.i_r, st.j_r, st.ck_recv)):
                    if ck is not None:
                        self.chains.add((i, j, bytes(ck)))
                for stage, key in st.skipped.items():
                    self.mk[stage] = bytes(key)
            for s in rec.rev_sesskey:
                env = decode_envelope(rec.transcript[s])
                self.mk[(env.i_index, env.j_index)] = bytes(rec.key[s])

    def _exchange(self, a: bytes, b: bytes):
        for mine, theirs in ((a, b), (b, a)):
            if mine in self.secrets:
                return cs.dh(self.secrets[mine], cs.GroupElement(theirs))
        return None

    def _candidates(self, epoch: int):
        """(salt, exchanges) for every way epoch's root might be derived."""
        if epoch == 0:
            return [(cs.ZERO_SALT, ((eph, self.y), (self.x, self.y)))
                    for eph in self.ephs[0]]
        return [(cs.SymmetricKey(rk), ((eph, prev),))
                for (e, rk) in self.roots if e == epoch - 1
                for eph in self.ephs[epoch]
                for prev in self.ephs.get(epoch - 1, ())]

    def run(self) -> dict:
        """label -> key for every stage key the adversary can compute."""
        while True:
            known = len(self.roots), len(self.chains)
            for epoch in self.ephs:
                for salt, exchanges in self._candidates(epoch):
                    outputs = [self._exchange(*pair) for pair in exchanges]
                    if None in outputs:
                        continue
                    rk, ck = cs.kdf_root(b"".join(outputs), salt)
                    self.roots.add((epoch, bytes(rk)))
                    self.chains.add((epoch, 0, bytes(ck)))
            if (len(self.roots), len(self.chains)) == known:
                break
        for epoch, j, ck in self.chains:
            cur = cs.SymmetricKey(ck)
            while j <= self.top.get(epoch, -1):
                key, cur = cs.kdf_chain(cur)
                self.mk.setdefault((epoch, j), bytes(key))
                j += 1
        return self.mk
