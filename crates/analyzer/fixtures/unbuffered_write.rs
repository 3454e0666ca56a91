//! Seeded violations for the `unbuffered-frame-write-in-session` rule:
//! a session loop answering each request with a per-frame write helper
//! instead of staging into the burst-coalescing `FrameWriter`.
//!
//! Not compiled — lexed by the analyzer's tests.

async fn serve_session(stream: NetStream, shared: Arc<Shared>) {
    let mut reader = wire::FrameReader::new();
    loop {
        let Some(frame) = reader.next_frame(&stream).await.ok().flatten() else {
            return;
        };
        let (id, request) = match wire::decode_request(frame) {
            Ok(decoded) => decoded,
            Err(_) => return,
        };
        let response = handle_request(&shared, request).await;
        let body = wire::encode_response(id, &response);
        // VIOLATION: one syscall per response, even when the client
        // pipelined a whole burst of requests.
        wire::write_frame(&mut stream.as_std(), &body).ok();
    }
}

fn flush_sync_fallback(stream: &mut impl Write, body: &[u8]) {
    // VIOLATION: a blocking fallback is just as unbuffered.
    wire::write_frame(stream, body).unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_peer_may_write_frames_directly() {
        // Legal: a unit test playing the peer of the session under test
        // writes its requests one frame at a time.
        let mut stream = std::io::Cursor::new(Vec::new());
        wire::write_frame(&mut stream, b"request").unwrap();
    }
}
