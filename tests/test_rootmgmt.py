"""Elector, ballot, quorum and policy-file tests, covering every row of
the root-management impact table."""

import pytest

from scms.certmodel import (
    ALG_DEFAULT,
    ALG_DOMAIN_SEP,
    SERIES_ROOT_MANAGED,
    ChainResult,
    issue_component_cert,
    verify_chain,
)
from scms.crypto import DeterministicRandom, KeyPair
from scms.encoding import encode
from scms.errors import ParseError
from scms.rootmgmt import (
    ENDORSE_ELECTOR,
    ENDORSE_ROOT,
    REVOKE_ELECTOR,
    REVOKE_ROOT,
    Action,
    Ballot,
    PolicyGenerator,
    TrustState,
    build_ballot,
    cast_vote,
    check_policy_artifact,
    make_elector,
)
from tests.conftest import build_mini_pki


def _setup(n_electors=3, quorum=None, seed=90):
    rng = DeterministicRandom(seed, "electors")
    # heterogeneous algorithms: the last elector signs under the
    # domain-separated variant
    electors = []
    for n in range(n_electors):
        alg = ALG_DOMAIN_SEP if n == n_electors - 1 else ALG_DEFAULT
        electors.append(make_elector(rng, alg))
    trust = TrustState([cert for _, cert in electors], quorum=quorum)
    return rng, electors, trust


def test_quorum_default_is_majority():
    _, _, trust = _setup(3)
    assert trust.quorum == 2
    _, _, trust5 = _setup(5)
    assert trust5.quorum == 3


def test_two_of_three_votes_accepted(pki):
    _, electors, trust = _setup()
    ballot = build_ballot(ENDORSE_ROOT, pki.root_cert, electors[:2])
    accepted = trust.process_ballot(ballot)
    assert len(accepted) == 1
    assert trust.root_trusted(pki.root_cert.cert_id())


def test_single_vote_rejected(pki):
    _, electors, trust = _setup()
    ballot = build_ballot(ENDORSE_ROOT, pki.root_cert, electors[:1])
    assert trust.process_ballot(ballot) == []
    assert not trust.root_trusted(pki.root_cert.cert_id())


def test_duplicate_votes_counted_once(pki):
    _, electors, trust = _setup()
    action = Action(kind=ENDORSE_ROOT, object_cert=pki.root_cert.encode())
    key, cert = electors[0]
    action.votes.append(cast_vote(key, cert, action))
    action.votes.append(cast_vote(key, cert, action))
    assert trust.validate_ballot(Ballot([action])) == []


def test_revoked_elector_votes_void(pki):
    _, electors, trust = _setup()
    # revoke elector 0 by quorum of the other two
    revoke = build_ballot(REVOKE_ELECTOR, electors[0][1], electors[1:])
    assert len(trust.process_ballot(revoke)) == 1
    # now elector 0's vote must not count toward a quorum
    ballot = build_ballot(ENDORSE_ROOT, pki.root_cert, [electors[0], electors[1]])
    assert trust.process_ballot(ballot) == []


def test_heterogeneous_algorithms_vote_together(pki):
    _, electors, trust = _setup()
    # electors[2] uses the domain-separated algorithm
    ballot = build_ballot(ENDORSE_ROOT, pki.root_cert, [electors[0], electors[2]])
    assert len(trust.process_ballot(ballot)) == 1


def test_vote_under_wrong_algorithm_rejected(pki):
    _, electors, trust = _setup()
    key2, cert2 = electors[2]  # domain-separated elector
    action = Action(kind=ENDORSE_ROOT, object_cert=pki.root_cert.encode())
    # forge a vote computed under the default algorithm instead
    from scms.certmodel import digest_for_alg
    from scms.crypto import sign
    from scms.rootmgmt import Vote

    bad = Vote(cert2.cert_id(),
               sign(key2.private, digest_for_alg(ALG_DEFAULT, action.signing_material())))
    action.votes.append(bad)
    action.votes.append(cast_vote(*electors[0], action))
    assert trust.validate_ballot(Ballot([action])) == []


def test_impact_row_revoking_one_elector_keeps_roots_valid(pki):
    # 3 electors, quorum 2: removing one elector does not stop operations
    _, electors, trust = _setup()
    trust.process_ballot(build_ballot(ENDORSE_ROOT, pki.root_cert, electors[:2]))
    trust.process_ballot(build_ballot(REVOKE_ELECTOR, electors[0][1], electors[1:]))
    # existing endorsement still in force; EE chain still verifies
    for cert in (pki.ica_cert, pki.pca_cert):
        trust.add_cert(cert)
    assert trust.root_trusted(pki.root_cert.cert_id())
    assert verify_chain(pki.pca_cert, trust) == ChainResult(True)
    assert trust.valid_elector_count() == 2


def test_impact_row_root_revocation_stops_dependent_chains(pki):
    _, electors, trust = _setup()
    trust.process_ballot(build_ballot(ENDORSE_ROOT, pki.root_cert, electors[:2]))
    for cert in (pki.ica_cert, pki.pca_cert):
        trust.add_cert(cert)
    assert verify_chain(pki.pca_cert, trust).ok
    trust.process_ballot(build_ballot(REVOKE_ROOT, pki.root_cert, electors[:2]))
    result = verify_chain(pki.pca_cert, trust)
    assert not result.ok
    assert result.reason == "root not endorsed by elector quorum"


def test_impact_row_new_elector_counts_and_new_root_trusted(pki):
    rng, electors, trust = _setup()
    # revoke one elector, then add a replacement via quorum of the old set
    trust.process_ballot(build_ballot(REVOKE_ELECTOR, electors[0][1], electors[1:]))
    replacement = make_elector(rng)
    trust.process_ballot(build_ballot(ENDORSE_ELECTOR, replacement[1], electors[1:]))
    assert trust.valid_elector_count() == 3

    # self-healing: the renewed set (with the replacement voting) endorses
    # a new root without any EE returning to a secure environment
    other_pki = build_mini_pki(seed=4242)
    ballot = build_ballot(ENDORSE_ROOT, other_pki.root_cert,
                          [electors[1], replacement])
    assert len(trust.process_ballot(ballot)) == 1
    assert trust.root_trusted(other_pki.root_cert.cert_id())

    # and tolerates another single revocation afterwards
    trust.process_ballot(build_ballot(REVOKE_ELECTOR, electors[1][1],
                                      [electors[2], replacement]))
    assert trust.valid_elector_count() == 2
    assert trust.quorum == 2


def test_apply_action_idempotent(pki):
    _, electors, trust = _setup()
    ballot = build_ballot(ENDORSE_ROOT, pki.root_cert, electors[:2])
    action = trust.validate_ballot(ballot)[0]
    trust.apply_action(action)
    trust.apply_action(action)
    assert trust.root_trusted(pki.root_cert.cert_id())


def test_ballot_encoding_roundtrip(pki):
    _, electors, _ = _setup()
    ballot = build_ballot(ENDORSE_ROOT, pki.root_cert, electors[:2])
    decoded = Ballot.decode(ballot.encode())
    assert decoded.actions[0].kind == ENDORSE_ROOT
    assert decoded.actions[0].object_cert == pki.root_cert.encode()
    assert len(decoded.actions[0].votes) == 2
    # votes survive re-encoding and still validate
    _, _, fresh = _setup()
    assert len(fresh.validate_ballot(decoded)) == 1


def test_ballot_validation_is_pure(pki):
    _, electors, trust = _setup()
    ballot = build_ballot(ENDORSE_ROOT, pki.root_cert, electors[:2])
    first = trust.validate_ballot(ballot)
    second = trust.validate_ballot(ballot)
    assert [a.object_cert for a in first] == [a.object_cert for a in second]


# --- policy generator ---

def _pg(pki):
    rng = DeterministicRandom(91, "pg")
    key = KeyPair.generate(rng)
    cert = issue_component_cert(key, "pg", pki.root_cert, pki.root_key,
                                pki.root_cert.cert_id(), SERIES_ROOT_MANAGED,
                                (0, 10000), None)
    return PolicyGenerator(key, cert)


def test_policy_versions_monotone(pki):
    pg = _pg(pki)
    v1 = pg.publish_gpf({"batch_size": 20})
    v2 = pg.publish_gpf({"batch_size": 24})
    assert (v1.version, v2.version) == (1, 2)
    # a device at version 2 rejects a replayed version-1 file
    assert check_policy_artifact(v1.encode(), pg.cert, last_version=2,
                                 name="gpf") is None
    accepted = check_policy_artifact(v2.encode(), pg.cert, last_version=1,
                                     name="gpf")
    assert accepted is not None
    assert accepted.body == {"batch_size": 24}


def test_tampered_policy_rejected(pki):
    pg = _pg(pki)
    artifact = pg.publish_gpf({"rotation_minutes": 5})
    raw = bytearray(artifact.encode())
    raw[10] ^= 1
    assert check_policy_artifact(bytes(raw), pg.cert, last_version=0,
                                 name="gpf") is None


def test_gccf_carries_chains(pki):
    pg = _pg(pki)
    chains = [[pki.pca_cert.encode(), pki.ica_cert.encode(),
               pki.root_cert.encode()]]
    artifact = pg.publish_gccf(chains)
    accepted = check_policy_artifact(artifact.encode(), pg.cert, last_version=0,
                                     name="gccf")
    assert accepted is not None
    assert accepted.body["chains"] == chains


@pytest.mark.parametrize("value", [
    {"kind": ENDORSE_ROOT},                                  # not a list
    [5],                                                     # action not a dict
    [{"kind": ENDORSE_ROOT, "object": b"c"}],                # no votes
    [{"kind": 7, "object": b"c", "votes": []}],              # kind not a str
    [{"kind": ENDORSE_ROOT, "object": "c", "votes": []}],    # object not bytes
    [{"kind": ENDORSE_ROOT, "object": b"c", "votes": [b"v"]}],
    [{"kind": ENDORSE_ROOT, "object": b"c",
      "votes": [{"elector": b"e"}]}],                        # vote without sig
    [{"kind": "grant-all", "object": b"c", "votes": []}],    # unknown action
])
def test_ballot_decode_rejects_wrong_shape_with_parse_error(value):
    with pytest.raises(ParseError):
        Ballot.decode(encode(value))
