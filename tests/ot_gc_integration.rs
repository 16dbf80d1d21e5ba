//! OT ↔ GC integration: evaluator input labels delivered through the real
//! OT stack (base OT + IKNP extension) must evaluate garbled circuits
//! correctly, including across threads on a byte-counted duplex wire.

use bytes::{Bytes, BytesMut};
use max_crypto::Block;
use max_gc::channel::{
    decode_blocks, decode_tables, encode_block_pairs, encode_tables, lend_bits, put_bits,
    put_blocks, Duplex, FrameKind, Reader,
};
use max_gc::{Evaluator, Garbler, Material, PrgLabelSource, Transport};
use max_netlist::{decode_unsigned, encode_unsigned, Builder};
use max_ot::{iknp, run_chosen_ot};

#[test]
fn ot_delivers_working_input_labels() {
    // An 8-bit adder where the evaluator's labels arrive via OT.
    let mut builder = Builder::new();
    let ga = builder.garbler_input_bus(8);
    let ea = builder.evaluator_input_bus(8);
    let sum = builder.add_expand(&ga, &ea);
    let netlist = builder.build(sum.wires().to_vec());

    let mut labels = PrgLabelSource::new(Block::new(0xabc));
    let mut garbler = Garbler::new(&mut labels);
    let garbled = garbler.garble(&netlist, 0);

    let g_value = 200u64;
    let e_value = 55u64;
    let g_labels = garbled.encode_garbler_inputs(&encode_unsigned(g_value, 8));

    // The OT: pairs from the garbler, choices from the evaluator.
    let pairs: Vec<(Block, Block)> = (0..8).map(|i| garbled.evaluator_label_pair(i)).collect();
    let choices = encode_unsigned(e_value, 8);
    let e_labels = run_chosen_ot(99, &pairs, &choices);

    let out = Evaluator::new().evaluate(&netlist, garbled.material(), &g_labels, &e_labels, 0);
    assert_eq!(
        decode_unsigned(&garbled.decode_outputs(&out)),
        g_value + e_value
    );
}

fn frame(put: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(0);
    put(&mut buf);
    buf.freeze()
}

fn recv_bits(wire: &mut Duplex) -> Vec<bool> {
    let frame = wire.recv_frame().expect("bits frame");
    let mut read = Reader::new(&frame);
    let bits = lend_bits(&mut read).expect("bits").iter().collect();
    read.end("bit frame").expect("bit frame trailing bytes");
    bits
}

#[test]
fn two_party_protocol_over_threads() {
    // Full two-party run on real threads with the byte-counted wire: the
    // garbler ships material + its own labels + OT ciphertexts; the client
    // ships only its OT correction message. The base-OT setup runs before
    // the split (it is interactive in the same way); each party takes its
    // own endpoint to its thread.
    let mut builder = Builder::new();
    let ga = builder.garbler_input_bus(4);
    let ea = builder.evaluator_input_bus(4);
    let prod = builder.mul(max_netlist::MultiplierKind::Tree, &ga, &ea);
    let netlist = builder.build(prod.wires().to_vec());
    let netlist_client = netlist.clone();

    let (mut wire_s, mut wire_c) = Duplex::pair();
    let (mut ot_sender, mut ot_receiver) = iknp::setup_pair(3);
    let g_value = 13u64;
    let e_value = 11u64;

    let server = std::thread::spawn(move || {
        let mut labels = PrgLabelSource::new(Block::new(0x5e55));
        let mut garbler = Garbler::new(&mut labels);
        let garbled = garbler.garble(&netlist, 0);
        let material = garbled.material();
        let g_labels = garbled.encode_garbler_inputs(&encode_unsigned(g_value, 4));
        for (kind, payload) in [
            (FrameKind::Raw, encode_tables(&material.tables)),
            (
                FrameKind::Bits,
                frame(|buf| put_bits(buf, &material.output_decode)),
            ),
            (FrameKind::Blocks, frame(|buf| put_blocks(buf, &g_labels))),
        ] {
            wire_s.send_frame(kind, payload).expect("send");
        }
        // OT sender side: receive the (choice-hiding) correction columns,
        // reply with the ciphertext pairs.
        let mut ext_columns = Vec::with_capacity(iknp::KAPPA);
        for _ in 0..iknp::KAPPA {
            let column = decode_blocks(wire_s.recv_frame().expect("ot column")).expect("blocks");
            ext_columns.push(column.iter().map(|b| b.bits() as u64).collect::<Vec<u64>>());
        }
        let count = recv_bits(&mut wire_s).len();
        let pairs: Vec<(Block, Block)> = (0..4).map(|i| garbled.evaluator_label_pair(i)).collect();
        let cipher = ot_sender.send(
            &iknp::ExtendMsg {
                columns: ext_columns,
                count,
            },
            &pairs,
        );
        wire_s
            .send_frame(FrameKind::Blocks, encode_block_pairs(&cipher.pairs))
            .expect("send");
        wire_s.sent().bytes()
    });

    let client = std::thread::spawn(move || {
        let tables = decode_tables(wire_c.recv_frame().expect("tables")).expect("tables");
        let decode = recv_bits(&mut wire_c);
        let g_labels = decode_blocks(wire_c.recv_frame().expect("garbler labels")).expect("blocks");

        // OT receiver side: send correction columns, get ciphertexts back.
        let choices = encode_unsigned(e_value, 4);
        let (ext, keys) = ot_receiver.prepare(&choices);
        for column in &ext.columns {
            let blocks: Vec<Block> = column.iter().map(|&w| Block::new(w as u128)).collect();
            wire_c
                .send_frame(FrameKind::Blocks, frame(|buf| put_blocks(buf, &blocks)))
                .expect("send");
        }
        wire_c
            .send_frame(
                FrameKind::Bits,
                frame(|buf| put_bits(buf, &vec![false; ext.count])),
            )
            .expect("send");
        let flat = decode_blocks(wire_c.recv_frame().expect("ot cipher")).expect("blocks");
        let cipher = iknp::CipherMsg {
            pairs: flat.chunks(2).map(|c| (c[0], c[1])).collect(),
        };
        let e_labels = ot_receiver.receive(&cipher, &keys, &choices);

        let material = Material {
            tables,
            output_decode: decode,
        };
        let out = Evaluator::new().evaluate(&netlist_client, &material, &g_labels, &e_labels, 0);
        let bits: Vec<bool> = out
            .iter()
            .zip(&material.output_decode)
            .map(|(l, &d)| l.lsb() ^ d)
            .collect();
        decode_unsigned(&bits)
    });

    let bytes_sent = server.join().expect("server thread");
    let result = client.join().expect("client thread");
    assert_eq!(result, g_value * e_value);
    assert!(bytes_sent > 0);
}

#[test]
fn iknp_scales_to_gc_row_sizes() {
    // A 32-bit, 64-round dot product needs 2048 OTs in one batch.
    let n = 32 * 64;
    let pairs: Vec<(Block, Block)> = (0..n)
        .map(|i| (Block::new(i as u128), Block::new((i + n) as u128)))
        .collect();
    let choices: Vec<bool> = (0..n).map(|i| (i * 7) % 3 == 0).collect();
    let got = run_chosen_ot(1234, &pairs, &choices);
    for ((g, p), &c) in got.iter().zip(&pairs).zip(&choices) {
        assert_eq!(*g, if c { p.1 } else { p.0 });
    }
}
