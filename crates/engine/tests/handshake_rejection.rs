//! Handshake rejection over a real socket: the test plays the worker. It
//! binds a loopback listener, hands its address to the coordinator as a
//! one-endpoint fleet, and answers the coordinator's dial with a bad
//! hello. Every case must fail the session build loudly — an error naming
//! the cause, with a `Reject` frame on the wire where a whole hello
//! arrived — and none may hang.

use itg_algorithms::programs;
use itg_engine::wire::{
    decode_handshake, encode_handshake, encode_handshake_versioned, read_frame, write_frame_bytes,
    Handshake, DST_CTRL, FINGERPRINT_ANY, RANK_ANY,
};
use itg_engine::{ClusterSpec, EngineConfig, GraphInput, SessionBuilder};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// What the fake worker sends once the coordinator has dialed in.
enum Hello {
    /// A whole hello frame with this body.
    Frame(Vec<u8>),
    /// Only the first `n` bytes of a valid hello frame, then close.
    Truncated(usize),
    /// Nothing: close straight away.
    Nothing,
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame_bytes(&mut out, DST_CTRL, body).unwrap();
    out
}

/// Accept the coordinator's dial, send `hello`, and return the handshake
/// frame the coordinator answered with, if any.
fn fake_worker(listener: TcpListener, hello: Hello) -> Option<Handshake> {
    let (mut stream, _): (TcpStream, _) = listener.accept().expect("coordinator dials in");
    let valid = encode_handshake(&Handshake::Hello {
        rank: RANK_ANY,
        fingerprint: FINGERPRINT_ANY,
    });
    match hello {
        Hello::Frame(body) => stream.write_all(&framed(&body)).unwrap(),
        Hello::Truncated(n) => stream.write_all(&framed(&valid)[..n]).unwrap(),
        Hello::Nothing => {}
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let (_, body) = read_frame(&mut stream).ok()??;
    decode_handshake(&body).ok()
}

#[test]
fn bad_hellos_are_rejected_loudly() {
    let hello = |rank, fingerprint| encode_handshake(&Handshake::Hello { rank, fingerprint });
    let cases = [
        (
            "wire version 99",
            Hello::Frame(encode_handshake_versioned(
                &Handshake::Hello {
                    rank: RANK_ANY,
                    fingerprint: FINGERPRINT_ANY,
                },
                99,
            )),
            "version",
            true,
        ),
        (
            "wire version 6",
            Hello::Frame(encode_handshake_versioned(
                &Handshake::Hello {
                    rank: RANK_ANY,
                    fingerprint: FINGERPRINT_ANY,
                },
                6,
            )),
            "version",
            true,
        ),
        (
            "wire version 7",
            Hello::Frame(encode_handshake_versioned(
                &Handshake::Hello {
                    rank: RANK_ANY,
                    fingerprint: FINGERPRINT_ANY,
                },
                7,
            )),
            "version",
            true,
        ),
        ("wrong fingerprint", Hello::Frame(hello(RANK_ANY, 0xBAD)), "fingerprint", true),
        ("rank claim 5 at endpoint 0", Hello::Frame(hello(5, FINGERPRINT_ANY)), "rank", true),
        ("truncated hello", Hello::Truncated(7), "hello", false),
        ("close before hello", Hello::Nothing, "hello", false),
    ];
    for (case, hello, cause, rejects) in cases {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let uri = format!("tcp://{}", listener.local_addr().unwrap());
        let worker = std::thread::spawn(move || fake_worker(listener, hello));

        // Build on a thread of its own so a hang fails the test instead of
        // stalling it.
        let (done, built) = mpsc::channel();
        std::thread::spawn(move || {
            let input = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
            let result = SessionBuilder::from_config(EngineConfig::default())
                .machines(2)
                .cluster(ClusterSpec::endpoints(vec![uri]))
                .from_source(&programs::source("wcc").unwrap(), &input)
                .map(|_| ());
            let _ = done.send(result.map_err(|e| e.to_string()));
        });
        let msg = built
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{case}: the session build hung"))
            .expect_err("a bad hello must not produce a session");
        assert!(msg.contains(cause), "{case}: error must name `{cause}`, got: {msg}");

        let reply = worker.join().expect("fake worker");
        assert_eq!(
            matches!(reply, Some(Handshake::Reject { .. })),
            rejects,
            "{case}: coordinator answered {reply:?}"
        );
    }
}
