(* Tests for the serving layer: wire-protocol round trips (hostile input
   included), the LRU artifact cache against its byte budget, the daemon's
   request coalescing (bit-identical to direct application), EINTR-proof
   raw I/O, and degradation reporting for manifests with missing shards. *)

open La
module Blackbox = Substrate.Blackbox
module Shard = Substrate.Shard
module Csr = Sparsemat.Csr
module Op = Subcouple_op
module Artifact = Subcouple_op.Artifact
module Manifest = Artifact.Manifest
module Io_retry = Subcouple_op.Io_retry
module Protocol = Serve.Protocol
module Cache = Serve.Cache
module Stats = Serve.Stats
module Server = Serve.Server
module Client = Serve.Client
open Sparsify

let rng = Rng.create 46656

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.equal (String.sub s i k) sub || go (i + 1)) in
  go 0

let vec_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let batch_bits_equal a b = Array.length a = Array.length b && Array.for_all2 vec_bits_equal a b

(* A small synthetic representation (same fixture as test_op): orthogonal
   Q from QR, random symmetric G_w. *)
let synthetic n =
  let q = (Qr.decomp (Mat.random rng n n)).Qr.q in
  let m = Mat.random rng n n in
  let gw = Mat.add m (Mat.transpose m) in
  Repr.make ~q:(Csr.of_dense q) ~gw:(Csr.of_dense gw) ~solves:5

let with_temp_dir f =
  let dir = Filename.temp_file "test_serve" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Protocol round trips *)

let degraded_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.Protocol.masked = b.Protocol.masked
    && a.Protocol.quarantined_shards = b.Protocol.quarantined_shards
    && a.Protocol.pending_shards = b.Protocol.pending_shards
  | _ -> false

let req_equal a b =
  match (a, b) with
  | Protocol.Info { artifact = x }, Protocol.Info { artifact = y } -> String.equal x y
  | ( Protocol.Apply { artifact = a1; v = v1; coalesce = c1 },
      Protocol.Apply { artifact = a2; v = v2; coalesce = c2 } ) ->
    String.equal a1 a2 && Bool.equal c1 c2 && vec_bits_equal v1 v2
  | ( Protocol.Apply_batch { artifact = a1; vs = vs1 },
      Protocol.Apply_batch { artifact = a2; vs = vs2 } ) ->
    String.equal a1 a2 && batch_bits_equal vs1 vs2
  | ( Protocol.Column { artifact = a1; index = i1; coalesce = c1 },
      Protocol.Column { artifact = a2; index = i2; coalesce = c2 } ) ->
    String.equal a1 a2 && i1 = i2 && Bool.equal c1 c2
  | ( Protocol.Threshold { artifact = a1; target = t1 },
      Protocol.Threshold { artifact = a2; target = t2 } ) ->
    String.equal a1 a2 && Int64.equal (Int64.bits_of_float t1) (Int64.bits_of_float t2)
  | Protocol.Stats, Protocol.Stats | Protocol.Shutdown, Protocol.Shutdown -> true
  | _ -> false

let resp_equal a b =
  match (a, b) with
  | ( Protocol.Vectors { vs = vs1; degraded = d1 },
      Protocol.Vectors { vs = vs2; degraded = d2 } ) ->
    batch_bits_equal vs1 vs2 && degraded_equal d1 d2
  | ( Protocol.Info_r
        { n = n1; kind = k1; source = s1; solves = sv1; storage_floats = f1; degraded = d1 },
      Protocol.Info_r
        { n = n2; kind = k2; source = s2; solves = sv2; storage_floats = f2; degraded = d2 } ) ->
    n1 = n2 && String.equal k1 k2 && String.equal s1 s2 && sv1 = sv2 && f1 = f2
    && degraded_equal d1 d2
  | ( Protocol.Threshold_r { nnz_before = b1; nnz_after = a1; storage_floats = f1 },
      Protocol.Threshold_r { nnz_before = b2; nnz_after = a2; storage_floats = f2 } ) ->
    b1 = b2 && a1 = a2 && f1 = f2
  | ( Protocol.Stats_r { table = t1; pairs = p1 },
      Protocol.Stats_r { table = t2; pairs = p2 } ) ->
    String.equal t1 t2
    && List.length p1 = List.length p2
    && List.for_all2
         (fun (na, va) (nb, vb) ->
           String.equal na nb && Int64.equal (Int64.bits_of_float va) (Int64.bits_of_float vb))
         p1 p2
  | Protocol.Shutting_down, Protocol.Shutting_down -> true
  | Protocol.Error_r a, Protocol.Error_r b -> String.equal a b
  | _ -> false

(* Every constructor, with hostile float bit patterns: NaN, infinities,
   signed zero, a subnormal — the protocol promises bit-exact transport. *)
let specials = [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 4.9e-324; 1.0 |]

let sample_requests =
  [
    Protocol.Info { artifact = "g.sca" };
    Protocol.Apply { artifact = "dir/g.sca"; v = specials; coalesce = true };
    Protocol.Apply { artifact = "g.sca"; v = [||]; coalesce = false };
    Protocol.Apply_batch { artifact = "m.scm"; vs = [| specials; [| 2.5 |]; [||] |] };
    Protocol.Apply_batch { artifact = "m.scm"; vs = [||] };
    Protocol.Column { artifact = "g.sca"; index = 17; coalesce = true };
    Protocol.Threshold { artifact = "g.sca"; target = 2.5 };
    Protocol.Stats;
    Protocol.Shutdown;
  ]

let some_degraded =
  Some { Protocol.masked = [| 3; 5; 11 |]; quarantined_shards = 2; pending_shards = 1 }

let sample_responses =
  [
    Protocol.Vectors { vs = [| specials |]; degraded = None };
    Protocol.Vectors { vs = [| [||]; specials |]; degraded = some_degraded };
    Protocol.Info_r
      {
        n = 256;
        kind = "lowrank";
        source = "substrate_extract --scenario regular";
        solves = 241;
        storage_floats = 37206;
        degraded = some_degraded;
      };
    Protocol.Threshold_r { nnz_before = 100; nnz_after = 50; storage_floats = 75 };
    Protocol.Stats_r
      { table = "counter  value\nx  1\n"; pairs = [ ("a.mean", 0.5); ("b", Float.nan) ] };
    Protocol.Shutting_down;
    Protocol.Error_r "no such artifact";
  ]

let test_request_roundtrip () =
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d" i)
        true
        (req_equal r (Protocol.decode_request (Protocol.encode_request r))))
    sample_requests

let test_response_roundtrip () =
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "response %d" i)
        true
        (resp_equal r (Protocol.decode_response (Protocol.encode_response r))))
    sample_responses

let hex s = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_wire_bytes_pinned () =
  (* A round trip alone would still pass if both sides of the codec
     changed together; these are the exact bytes on the wire. *)
  let v = [| -0.0; Float.infinity; 4.9e-324 |] in
  let req = Protocol.Apply { artifact = "g.sca"; v; coalesce = true } in
  let payload =
    "410500000000000000672e7363610103000000000000000000000000000080000000000000f07f0100000000000000"
  in
  Alcotest.(check string) "Apply request" payload (hex (Protocol.encode_request req));
  Alcotest.(check string) "Vectors response"
    ("7601010000000000000003000000000000000100000000000000000000000000000001000000000000000300000000"
   ^ "0000000000000000000080000000000000f07f0100000000000000")
    (hex
       (Protocol.encode_response
          (Protocol.Vectors
             {
               vs = [| v |];
               degraded = Some { Protocol.masked = [| 3 |]; quarantined_shards = 1; pending_shards = 0 };
             })));
  (* The frame header: the payload length as a little-endian int64. *)
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      Protocol.write_request w req;
      let frame = Bytes.create (8 + (String.length payload / 2)) in
      Io_retry.really_read r frame 0 (Bytes.length frame);
      Alcotest.(check string) "Apply frame" ("2f00000000000000" ^ payload) (hex (Bytes.to_string frame)))

(* Hostile payloads must raise Protocol.Error — never an allocation
   failure or an out-of-bounds crash. Truncating a valid encoding at
   every prefix length sweeps all "length field promises more than is
   there" cases. *)
let check_rejects name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": malformed payload decoded successfully")
  | exception Protocol.Error _ -> ()

let test_malformed_rejected () =
  check_rejects "empty request" (fun () -> Protocol.decode_request "");
  check_rejects "empty response" (fun () -> Protocol.decode_response "");
  check_rejects "unknown request opcode" (fun () -> Protocol.decode_request "Z");
  check_rejects "unknown response opcode" (fun () -> Protocol.decode_response "Z");
  List.iter
    (fun r ->
      let s = Protocol.encode_request r in
      for len = 0 to String.length s - 1 do
        check_rejects
          (Printf.sprintf "truncated request at %d" len)
          (fun () -> Protocol.decode_request (String.sub s 0 len))
      done;
      check_rejects "trailing garbage" (fun () -> Protocol.decode_request (s ^ "x")))
    sample_requests;
  List.iter
    (fun r ->
      let s = Protocol.encode_response r in
      for len = 0 to String.length s - 1 do
        check_rejects
          (Printf.sprintf "truncated response at %d" len)
          (fun () -> Protocol.decode_response (String.sub s 0 len))
      done;
      check_rejects "trailing garbage" (fun () -> Protocol.decode_response (s ^ "x")))
    sample_responses

let test_hostile_frame_length () =
  (* A frame header declaring 2^62 bytes must be refused before any
     allocation happens. *)
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let header = Bytes.create 8 in
      Bytes.set_int64_le header 0 (Int64.shift_left 1L 62);
      Io_retry.write_all w header 0 8;
      match Protocol.read_request r with
      | _ -> Alcotest.fail "hostile frame length accepted"
      | exception Protocol.Error msg ->
        Alcotest.(check bool) "error names the length" true (contains msg "frame"))

let test_socket_framing_roundtrip () =
  (* Requests and responses survive a real fd boundary, interleaved. *)
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter (fun req -> Protocol.write_request w req) sample_requests;
      List.iter
        (fun req ->
          Alcotest.(check bool) "framed request" true (req_equal req (Protocol.read_request r)))
        sample_requests;
      List.iter (fun resp -> Protocol.write_response w resp) sample_responses;
      List.iter
        (fun resp ->
          Alcotest.(check bool) "framed response" true (resp_equal resp (Protocol.read_response r)))
        sample_responses)

(* ------------------------------------------------------------------ *)
(* The LRU cache *)

let save_synthetic dir name n =
  let r = synthetic n in
  Repr.save r ~kind:"test" ~source:name ~path:(Filename.concat dir name);
  r

let test_cache_hits_and_stale_detection () =
  with_temp_dir (fun dir ->
      let r = save_synthetic dir "a.sca" 10 in
      let stats = Stats.create () in
      let cache = Cache.create ~root:dir ~stats () in
      let e1 = Cache.get cache "a.sca" in
      Alcotest.(check int) "first get misses" 1 (Stats.counter_value stats "cache.misses");
      let e2 = Cache.get cache "a.sca" in
      Alcotest.(check int) "second get hits" 1 (Stats.counter_value stats "cache.hits");
      Alcotest.(check string) "same resident entry" e1.Cache.digest e2.Cache.digest;
      (* The cached operator answers bit-identically to the source. *)
      let v = Rng.gaussian_array (Rng.create 5) 10 in
      Alcotest.(check bool) "cached op bit-identical" true
        (vec_bits_equal (Op.apply (Repr.op r) v) (Op.apply e1.Cache.op v));
      (* Rewriting the file in place must be detected, not served stale.
         Backdating the mtime guards against same-second rewrites. *)
      let r2 = save_synthetic dir "a.sca" 12 in
      ignore r2;
      let past = Unix.time () -. 7200.0 in
      Unix.utimes (Filename.concat dir "a.sca") past past;
      let e3 = Cache.get cache "a.sca" in
      Alcotest.(check int) "rewritten file re-loaded" 12 (Op.n e3.Cache.op);
      Alcotest.(check bool) "new digest" true (not (String.equal e1.Cache.digest e3.Cache.digest)))

let test_cache_lru_eviction () =
  with_temp_dir (fun dir ->
      ignore (save_synthetic dir "a.sca" 10);
      ignore (save_synthetic dir "b.sca" 10);
      ignore (save_synthetic dir "c.sca" 10);
      (* Size one entry with a throwaway cache, then budget for two. *)
      let probe = Cache.create ~root:dir ~stats:(Stats.create ()) () in
      let entry_bytes = (Cache.get probe "a.sca").Cache.bytes in
      let stats = Stats.create () in
      let cache = Cache.create ~max_bytes:((2 * entry_bytes) + 16) ~root:dir ~stats () in
      ignore (Cache.get cache "a.sca");
      ignore (Cache.get cache "b.sca");
      Alcotest.(check int) "two fit" 0 (Stats.counter_value stats "cache.evictions");
      ignore (Cache.get cache "a.sca") (* a is now more recent than b *);
      ignore (Cache.get cache "c.sca");
      Alcotest.(check int) "third evicts" 1 (Stats.counter_value stats "cache.evictions");
      let entries, resident = Cache.resident cache in
      Alcotest.(check int) "two resident" 2 entries;
      Alcotest.(check bool) "within budget" true (resident <= Cache.max_bytes cache);
      let hits = Stats.counter_value stats "cache.hits" in
      ignore (Cache.get cache "a.sca");
      Alcotest.(check int) "a survived (recently used)" (hits + 1)
        (Stats.counter_value stats "cache.hits");
      ignore (Cache.get cache "b.sca");
      Alcotest.(check int) "b was the LRU victim" 4 (Stats.counter_value stats "cache.misses"))

let test_cache_oversized_entry_admitted () =
  with_temp_dir (fun dir ->
      ignore (save_synthetic dir "a.sca" 12);
      let stats = Stats.create () in
      (* Budget far below one entry: still served, everything else evicted. *)
      let cache = Cache.create ~max_bytes:64 ~root:dir ~stats () in
      let e = Cache.get cache "a.sca" in
      Alcotest.(check int) "served" 12 (Op.n e.Cache.op);
      let entries, _ = Cache.resident cache in
      Alcotest.(check int) "resident" 1 entries)

let test_cache_name_policy () =
  with_temp_dir (fun dir ->
      let stats = Stats.create () in
      let cache = Cache.create ~root:dir ~stats () in
      let rejects name =
        match Cache.get cache name with
        | _ -> Alcotest.fail (Printf.sprintf "name %S crossed the trust boundary" name)
        | exception Cache.Rejected _ -> ()
      in
      rejects "";
      rejects "/etc/passwd";
      rejects "../outside.sca";
      rejects "a/../../outside.sca";
      rejects (String.make (Protocol.max_name_bytes + 1) 'a'))

(* ------------------------------------------------------------------ *)
(* The daemon: coalescing is bit-identical to direct application *)

let with_server ?(jobs = 2) dir f =
  let sock = Filename.concat dir "serve.sock" in
  let srv = Server.create ~jobs ~root:dir ~listen:(`Unix sock) () in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () -> f sock srv)

let test_server_coalescing_bit_identical () =
  with_temp_dir (fun dir ->
      let r = synthetic 32 in
      Repr.save r ~kind:"test" ~path:(Filename.concat dir "g.sca");
      with_server dir (fun sock srv ->
          let op = Repr.op r in
          let clients = 6 and per = 8 in
          let vs =
            Array.init (clients * per) (fun i -> Rng.gaussian_array (Rng.create (1000 + i)) 32)
          in
          let expect = Op.apply_batch ~jobs:1 op vs in
          (* Concurrent clients, one coalescible request per vector: the
             server batches whatever arrives together; answers must not
             depend on the grouping. *)
          let results = Array.make (clients * per) [||] in
          let degraded_seen = ref false in
          let threads =
            List.init clients (fun c ->
                Thread.create
                  (fun () ->
                    Client.with_connection (`Unix sock) (fun cl ->
                        for k = 0 to per - 1 do
                          let i = (c * per) + k in
                          let y, d = Client.apply cl ~artifact:"g.sca" vs.(i) in
                          if Option.is_some d then degraded_seen := true;
                          results.(i) <- y
                        done))
                  ())
          in
          List.iter Thread.join threads;
          Alcotest.(check bool) "full artifact never degraded" false !degraded_seen;
          Alcotest.(check bool) "coalesced ≡ direct, bitwise" true (batch_bits_equal expect results);
          Client.with_connection (`Unix sock) (fun cl ->
              (* The one-shot batch path and the uncoalesced path agree too. *)
              let outs, _ = Client.apply_batch cl ~artifact:"g.sca" vs in
              Alcotest.(check bool) "batched request bitwise" true (batch_bits_equal expect outs);
              let y, _ = Client.apply ~coalesce:false cl ~artifact:"g.sca" vs.(0) in
              Alcotest.(check bool) "uncoalesced bitwise" true (vec_bits_equal expect.(0) y);
              let col, _ = Client.column cl ~artifact:"g.sca" 5 in
              Alcotest.(check bool) "served column" true
                (vec_bits_equal (Op.columns op [| 5 |]).(0) col);
              (* Errors answer the request, not the connection. *)
              (match Client.info cl ~artifact:"missing.sca" with
              | _ -> Alcotest.fail "missing artifact served"
              | exception Client.Server_error _ -> ());
              (match Client.apply cl ~artifact:"g.sca" [| 1.0 |] with
              | _ -> Alcotest.fail "wrong-length vector served"
              | exception Client.Server_error msg ->
                Alcotest.(check bool) "names the length" true (contains msg "32"));
              let i = Client.info cl ~artifact:"g.sca" in
              Alcotest.(check int) "info n" 32 i.Client.n;
              Alcotest.(check string) "info kind" "test" i.Client.kind;
              (* Stats: every coalesced request was counted, one artifact
                 loaded once. *)
              let table, pairs = Client.stats cl in
              let value name = List.assoc name pairs in
              Alcotest.(check bool) "coalesced counted" true
                (value "batch.coalesced" >= float_of_int (clients * per));
              Alcotest.(check (float 0.0)) "one cache miss" 1.0 (value "cache.misses");
              Alcotest.(check bool) "table mentions latency" true (contains table "latency_s.apply"));
          ignore
            (Stats.counter_value (Server.stats srv) "requests.apply" : int)))

let test_server_survives_killed_connection () =
  with_temp_dir (fun dir ->
      ignore (save_synthetic dir "g.sca" 16);
      with_server dir (fun sock _srv ->
          (* A client that dies mid-frame must not take the daemon down. *)
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let header = Bytes.create 8 in
          Bytes.set_int64_le header 0 1000L (* promise 1000 bytes, send 3 *);
          Io_retry.write_all fd header 0 8;
          Io_retry.write_all fd (Bytes.of_string "abc") 0 3;
          Unix.close fd;
          (* A malformed frame gets an error response, then the daemon
             drops the connection. *)
          let fd2 = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd2 (Unix.ADDR_UNIX sock);
          let huge = Bytes.create 8 in
          Bytes.set_int64_le huge 0 (Int64.shift_left 1L 62);
          Io_retry.write_all fd2 huge 0 8;
          (match Protocol.read_response fd2 with
          | Protocol.Error_r msg ->
            Alcotest.(check bool) "names the frame" true (contains msg "frame")
          | _ -> Alcotest.fail "expected an error response"
          | exception End_of_file -> () (* already dropped: also acceptable *));
          Unix.close fd2;
          (* The daemon still serves. *)
          Client.with_connection (`Unix sock) (fun cl ->
              Alcotest.(check int) "still serving" 16 (Client.info cl ~artifact:"g.sca").Client.n)))

(* ------------------------------------------------------------------ *)
(* EINTR: raw I/O and artifact saves keep working under a signal storm *)

(* The process's stderr before Alcotest redirects each test's output, so a
   watchdog report reaches the terminal even when the test never returns. *)
let console = Unix.dup ~cloexec:true Unix.stderr

(* Run [f step] under a deadline. [f] names each step it enters through
   [step]; if it has not returned after [seconds], the watchdog reports the
   step it is stuck in and ends the test process with a failure, so a hang
   fails instead of stalling the suite. The watchdog blocks SIGALRM, leaving
   a storm's signals to the threads under test. *)
let with_watchdog ~seconds name f =
  let current = Atomic.make "start" and finished = Atomic.make false in
  let dog =
    Thread.create
      (fun () ->
        ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigalrm ] : int list);
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get finished) then begin
          let msg =
            Printf.sprintf "FAIL %s: stuck in \"%s\" after %.0f s\n" name (Atomic.get current)
              seconds
          in
          prerr_string msg;
          ignore (Unix.write_substring console msg 0 (String.length msg) : int);
          Unix._exit 1
        end)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Thread.join dog)
    (fun () -> f (Atomic.set current))

(* A 0.5 ms SIGALRM storm for the duration of [f]. *)
let with_signal_storm f =
  let fired = ref 0 in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr fired));
  let tick = { Unix.it_interval = 0.0005; it_value = 0.0005 } in
  ignore (Unix.setitimer Unix.ITIMER_REAL tick : Unix.interval_timer_status);
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 }
          : Unix.interval_timer_status);
      Sys.set_signal Sys.sigalrm Sys.Signal_default)
    (fun () ->
      f ();
      Alcotest.(check bool) "the storm actually fired" true (!fired > 0))

let test_eintr_storm () =
  with_watchdog ~seconds:60.0 "EINTR storm" @@ fun step ->
  with_signal_storm (fun () ->
      (* A pipe transfer much larger than the kernel buffer: both sides
         block repeatedly, so interrupted write() and read() calls are
         exercised for real, not just simulated. *)
      let nbytes = 8 * 1024 * 1024 in
      let data = Bytes.init nbytes (fun i -> Char.chr (i land 0xff)) in
      let r, w = Unix.pipe ~cloexec:true () in
      let writer =
        Thread.create
          (fun () ->
            Io_retry.write_all w data 0 nbytes;
            Unix.close w)
          ()
      in
      let got = Bytes.create nbytes in
      step "pipe transfer: really_read";
      Io_retry.really_read r got 0 nbytes;
      step "pipe transfer: join the writer";
      Thread.join writer;
      Unix.close r;
      Alcotest.(check bool) "pipe transfer intact" true (Bytes.equal data got);
      (* Artifact saves under the same storm: every save lands complete
         and loads back bit-identical — no torn temp files promoted. *)
      let repr = synthetic 40 in
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "g.sca" in
          for k = 1 to 10 do
            step (Printf.sprintf "artifact save %d" k);
            Repr.save repr ~kind:"eintr" ~path;
            let loaded = Repr.of_artifact (Artifact.load ~path) in
            let v = Rng.gaussian_array (Rng.create 77) 40 in
            Alcotest.(check bool) "save under signals round-trips" true
              (vec_bits_equal (Op.apply (Repr.op repr) v) (Op.apply (Repr.op loaded) v))
          done))

(* Every storm signal lands on the writer: the reader blocks SIGALRM, and
   it drains slowly, so the writer spends the transfer blocked on a full
   pipe where each signal interrupts it. An interrupted write must not send
   bytes twice, so exactly [nbytes] arrive. The reader stops at
   [nbytes + 1] and closes its end on any surplus or failure; with SIGPIPE
   ignored the writer then fails with EPIPE instead of blocking on a full
   pipe. *)
let test_eintr_writer_sends_each_byte_once () =
  with_watchdog ~seconds:60.0 "EINTR storm on the writer" @@ fun step ->
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_sigpipe) @@ fun () ->
  with_signal_storm (fun () ->
      let nbytes = 4 * 1024 * 1024 in
      let data = Bytes.init nbytes (fun i -> Char.chr ((i * 7) land 0xff)) in
      let r, w = Unix.pipe ~cloexec:true () in
      let received = Bytes.create (nbytes + 1) in
      let count = Atomic.make 0 in
      let reader =
        Thread.create
          (fun () ->
            ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigalrm ] : int list);
            Fun.protect
              ~finally:(fun () -> Unix.close r)
              (fun () ->
                let rec go got =
                  if got > nbytes then got
                  else
                    match Unix.read r received got (nbytes + 1 - got) with
                    | 0 -> got
                    | k ->
                      Thread.delay 0.001;
                      go (got + k)
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
                in
                Atomic.set count (go 0)))
          ()
      in
      step "write_all under the storm";
      let written =
        match Io_retry.write_all w data 0 nbytes with
        | () -> "ok"
        | exception Unix.Unix_error (e, _, _) -> Unix.error_message e
      in
      Unix.close w;
      step "join the reader";
      Thread.join reader;
      Alcotest.(check string) "write_all completes" "ok" written;
      Alcotest.(check int) "bytes received" nbytes (Atomic.get count);
      Alcotest.(check bool) "bytes intact" true (Bytes.equal data (Bytes.sub received 0 nbytes)))

(* ------------------------------------------------------------------ *)
(* Degraded manifests: masked rows are never silent *)

let dense_g n =
  let g = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set g i j (Rng.gaussian rng)
    done;
    Mat.set g i i (Mat.get g i i +. 10.0)
  done;
  g

let test_degraded_manifest_over_serve () =
  with_temp_dir (fun dir ->
      let layout = Geometry.Layout.alternating ~size:64.0 ~per_side:4 () in
      let n = Geometry.Layout.n_contacts layout in
      let m, _ =
        Sharded.extract ~method_:`Lowrank ~shard_level:1 ~dir layout
          (Blackbox.of_dense (dense_g n))
      in
      (* Quarantine the last shard after the fact: its artifact stays on
         disk, but the manifest now says it failed. *)
      let last = Array.length m.Manifest.entries - 1 in
      let masked_contacts = m.Manifest.entries.(last).Manifest.contacts in
      let entries =
        Array.mapi
          (fun i e ->
            if i = last then { e with Manifest.status = Manifest.Quarantined "induced for test" }
            else e)
          m.Manifest.entries
      in
      let m' = { m with Manifest.entries } in
      let mpath = Shard.manifest_path dir in
      Manifest.save ~path:mpath m';
      (* The warning helper names the masked contacts. *)
      let _op, health = Op.of_manifest ~dir m' in
      (match Op.degraded_warning ~context:"column 3" health with
      | None -> Alcotest.fail "degraded composition produced no warning"
      | Some w ->
        Alcotest.(check bool) "warning counts the masked contacts" true
          (contains w (Printf.sprintf "%d masked contact" (Array.length masked_contacts)));
        Alcotest.(check bool) "warning names the request" true (contains w "column 3");
        Alcotest.(check bool) "warning names an index" true
          (contains w (string_of_int masked_contacts.(0))));
      Alcotest.(check bool) "full health warns nothing" true
        (Option.is_none (Op.degraded_warning Op.Full));
      (* Over the wire: the degraded flag rides every answer. *)
      with_server dir (fun sock _srv ->
          Client.with_connection (`Unix sock) (fun cl ->
              let name = Filename.basename mpath in
              let i = Client.info cl ~artifact:name in
              (match i.Client.degraded with
              | None -> Alcotest.fail "served info hides the degradation"
              | Some d ->
                Alcotest.(check bool) "masked ids over the wire" true
                  (d.Protocol.masked = masked_contacts);
                Alcotest.(check int) "quarantined count" 1 d.Protocol.quarantined_shards;
                Alcotest.(check int) "pending count" 0 d.Protocol.pending_shards);
              let v = Rng.gaussian_array (Rng.create 9) n in
              let y, d = Client.apply cl ~artifact:name v in
              Alcotest.(check bool) "apply carries the flag" true (Option.is_some d);
              Array.iter
                (fun c ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "masked row %d is zero" c)
                    0.0 y.(c))
                masked_contacts)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round trips" `Quick test_request_roundtrip;
          Alcotest.test_case "wire bytes pinned" `Quick test_wire_bytes_pinned;
          Alcotest.test_case "response round trips" `Quick test_response_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
          Alcotest.test_case "hostile frame length" `Quick test_hostile_frame_length;
          Alcotest.test_case "framing over an fd" `Quick test_socket_framing_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits and stale detection" `Quick test_cache_hits_and_stale_detection;
          Alcotest.test_case "LRU eviction at byte budget" `Quick test_cache_lru_eviction;
          Alcotest.test_case "oversized entry admitted" `Quick test_cache_oversized_entry_admitted;
          Alcotest.test_case "name trust boundary" `Quick test_cache_name_policy;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "coalescing bit-identical" `Quick test_server_coalescing_bit_identical;
          Alcotest.test_case "survives killed connections" `Quick
            test_server_survives_killed_connection;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "EINTR storm" `Quick test_eintr_storm;
          Alcotest.test_case "EINTR storm writer sends each byte once" `Quick
            test_eintr_writer_sends_each_byte_once;
          Alcotest.test_case "degraded manifest over serve" `Quick
            test_degraded_manifest_over_serve;
        ] );
    ]
