(* Tests for the textual system formats used by the rlcheck CLI. *)

open Rl_sigma
open Rl_automata
open Rl_core

let test_parse_ts_basic () =
  let ts =
    Ts_format.parse_ts
      "# a comment\n\ninitial 0\n0 request 1\n1 result 0\n1 reject 0\n"
  in
  Alcotest.(check int) "states" 2 (Nfa.states ts);
  Alcotest.(check (list string))
    "alphabet in order of appearance"
    [ "request"; "result"; "reject" ]
    (Alphabet.names (Nfa.alphabet ts));
  Alcotest.(check bool) "all final" true (Nfa.all_states_final ts);
  Alcotest.(check bool) "accepts request" true
    (Nfa.accepts ts (Word.of_names (Nfa.alphabet ts) [ "request"; "result" ]))

let test_parse_ts_default_initial () =
  let ts = Ts_format.parse_ts "0 a 1\n1 a 0\n" in
  Alcotest.(check (list int)) "initial defaults to 0" [ 0 ] (Nfa.initial ts)

let test_parse_ts_multiple_initial () =
  let ts = Ts_format.parse_ts "initial 0 1\n0 a 1\n1 b 0\n" in
  Alcotest.(check (list int)) "both initial" [ 0; 1 ] (Nfa.initial ts)

let test_parse_ts_errors () =
  let fails src expected_line =
    match Ts_format.parse_ts src with
    | exception Ts_format.Syntax_error (line, _) ->
        Alcotest.(check int) ("line of " ^ src) expected_line line
    | _ -> Alcotest.failf "expected syntax error for %S" src
  in
  fails "0 a\n" 1;
  fails "0 a 1\nnonsense line here extra\n" 2;
  fails "initial\n0 a 1" 1;
  fails "0 a -1\n" 1

let test_print_parse_roundtrip () =
  let ts =
    Ts_format.parse_ts "initial 0\n0 request 1\n1 result 0\n1 reject 0\n"
  in
  let ts' = Ts_format.parse_ts (Ts_format.print_ts ts) in
  match
    Dfa.equivalent
      (Dfa.determinize ts)
      (Dfa.determinize ts')
  with
  | Ok () -> ()
  | Error w ->
      Alcotest.failf "languages differ on %a" (Word.pp (Nfa.alphabet ts)) w

let test_parse_petri () =
  let net =
    Ts_format.parse_petri
      "# producer/consumer\nplace ready 1\nplace buffer 0\n\
       trans produce : ready -> buffer\ntrans consume : buffer -> ready\n"
  in
  Alcotest.(check int) "places" 2 (Rl_petri.Petri.num_places net);
  Alcotest.(check int) "transitions" 2 (Rl_petri.Petri.num_transitions net);
  let ts, _ = Rl_petri.Petri.reachability_graph net in
  Alcotest.(check int) "reachable markings" 2 (Nfa.states ts)

let test_parse_petri_weighted () =
  let net =
    Ts_format.parse_petri "place p 2\nplace q 0\ntrans both : p:2 -> q\n"
  in
  let m0 = Rl_petri.Petri.initial_marking net in
  Alcotest.(check bool) "weighted enabled" true (Rl_petri.Petri.enabled net m0 0)

let test_parse_petri_errors () =
  (match Ts_format.parse_petri "place p x\n" with
  | exception Ts_format.Syntax_error (1, _) -> ()
  | _ -> Alcotest.fail "bad token count accepted");
  match Ts_format.parse_petri "trans t : p q\n" with
  | exception Ts_format.Syntax_error (1, _) -> ()
  | _ -> Alcotest.fail "missing arrow accepted"

(* the entry points that know a path attach it to every diagnostic *)
let test_load_warning_file_context () =
  let path = Filename.temp_file "rl_fmt_warn" ".ts" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      (* no initial declaration: the RL001 warning *)
      output_string oc "0 a 0\n";
      close_out oc;
      let typed = ref [] in
      let _ts =
        Ts_format.load ~on_diagnostic:(fun d -> typed := d :: !typed) path
      in
      Alcotest.(check bool) "the warning fired" true (!typed <> []);
      List.iter
        (fun d ->
          Alcotest.(check (option string)) "typed diagnostic carries the file"
            (Some path) d.Rl_analysis.Diagnostic.file)
        !typed;
      (* parse_ts_result ~file attaches the same way *)
      let typed2 = ref [] in
      (match
         Ts_format.parse_ts_result ~file:"m.ts"
           ~on_diagnostic:(fun d -> typed2 := d :: !typed2)
           "0 a 0\n"
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "parse_ts_result rejected a valid model");
      List.iter
        (fun d ->
          Alcotest.(check (option string)) "result diagnostic carries the file"
            (Some "m.ts") d.Rl_analysis.Diagnostic.file)
        !typed2;
      Alcotest.(check bool) "result diagnostics fired" true (!typed2 <> []))

(* randomized roundtrip: print then parse preserves the language *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"print_ts / parse_ts roundtrip preserves language"
    ~count:200
    QCheck2.Gen.(
      let* seed = 0 -- 1_000_000 in
      let* states = 1 -- 6 in
      return
        (Gen.transition_system (Helpers.mk_rng seed)
           ~alphabet:(Alphabet.make [ "a"; "b" ])
           ~states ~branching:1.5))
    (fun ts ->
      let ts' = Ts_format.parse_ts (Ts_format.print_ts ts) in
      match Dfa.equivalent (Dfa.determinize ts) (Dfa.determinize ts') with
      | Ok () -> true
      | Error _ -> false)

let () =
  Alcotest.run "format"
    [
      ( "transition-systems",
        [
          Alcotest.test_case "basic" `Quick test_parse_ts_basic;
          Alcotest.test_case "default initial" `Quick test_parse_ts_default_initial;
          Alcotest.test_case "multiple initial" `Quick test_parse_ts_multiple_initial;
          Alcotest.test_case "errors with line numbers" `Quick test_parse_ts_errors;
          Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "diagnostics carry file context" `Quick
            test_load_warning_file_context;
        ] );
      ( "petri-nets",
        [
          Alcotest.test_case "basic" `Quick test_parse_petri;
          Alcotest.test_case "weighted arcs" `Quick test_parse_petri_weighted;
          Alcotest.test_case "errors" `Quick test_parse_petri_errors;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_roundtrip ]);
    ]
