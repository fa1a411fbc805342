(* Respect the process umask so atomically-written files get the same
   permissions plain [open_out] would have given them ([Filename.temp_file]
   creates 0600). *)
let default_perm () =
  let mask = Unix.umask 0 in
  ignore (Unix.umask mask);
  0o666 land lnot mask

let write_file path contents =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let tmp =
    try Filename.temp_file ~temp_dir:dir ("." ^ base ^ ".") ".tmp"
    with Sys_error msg -> raise (Sys_error (path ^ ": " ^ msg))
  in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  try
    let oc = open_out_bin tmp in
    (try
       output_string oc contents;
       flush oc;
       Unix.fsync (Unix.descr_of_out_channel oc);
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Unix.chmod tmp (default_perm ());
    (* The crash window the rename protects against: data staged but not
       yet published. *)
    Fault.hit "io.write";
    Sys.rename tmp path
  with
  | Unix.Unix_error (err, _, _) ->
    cleanup ();
    raise (Sys_error (path ^ ": " ^ Unix.error_message err))
  | e ->
    cleanup ();
    raise e

let append_file path contents =
  try
    let fd =
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
        0o666
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        (* Before the first byte: a fault here leaves the file as the
           last successful append left it. *)
        Fault.hit "io.write";
        let n = String.length contents in
        let rec go off =
          if off < n then go (off + Unix.write_substring fd contents off (n - off))
        in
        go 0;
        Unix.fsync fd)
  with Unix.Unix_error (err, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message err))
