-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'sad4'
-- data path: 17 nodes (9 soft, 8 hard), 3 pipeline stages
-- netlist: 46 cells, 56 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node1 is
  port (
    v0_A0 : in unsigned(7 downto 0);
    v1_A1 : in unsigned(7 downto 0);
    v2_A2 : in unsigned(7 downto 0);
    v3_A3 : in unsigned(7 downto 0);
    v4_B0 : in unsigned(7 downto 0);
    v5_B1 : in unsigned(7 downto 0);
    v6_B2 : in unsigned(7 downto 0);
    v7_B3 : in unsigned(7 downto 0);
    v9_t_out : out signed(8 downto 0);
    v11_t_out : out signed(8 downto 0);
    v13_t_out : out signed(8 downto 0);
    v15_t_out : out signed(8 downto 0);
    v16_t_out : out unsigned(0 downto 0);
    v17_t_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_node1;

architecture rtl of sad4_dp_node1 is
  signal v8_t : signed(8 downto 0);
  signal v9_t : signed(8 downto 0);
  signal v10_t : signed(8 downto 0);
  signal v11_t : signed(8 downto 0);
  signal v12_t : signed(8 downto 0);
  signal v13_t : signed(8 downto 0);
  signal v14_t : signed(8 downto 0);
  signal v15_t : signed(8 downto 0);
  signal v17_t : unsigned(0 downto 0);
begin
  v8_t <= signed(resize(v0_A0, 9)) - signed(resize(v4_B0, 9));
  v9_t <= v8_t;
  v10_t <= signed(resize(v1_A1, 9)) - signed(resize(v5_B1, 9));
  v11_t <= v10_t;
  v12_t <= signed(resize(v2_A2, 9)) - signed(resize(v6_B2, 9));
  v13_t <= v12_t;
  v14_t <= signed(resize(v3_A3, 9)) - signed(resize(v7_B3, 9));
  v15_t <= v14_t;
  v17_t <= "1" when resize(v9_t, 10) < to_signed(0, 10) else "0";
  v9_t_out <= v9_t;
  v11_t_out <= v11_t;
  v13_t_out <= v13_t;
  v15_t_out <= v15_t;
  v16_t_out <= v16_t;
  v17_t_out <= v17_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node2 is
  port (
    v9_t : in signed(8 downto 0);
    v19_t_out : out signed(8 downto 0)
  );
end entity sad4_dp_node2;

architecture rtl of sad4_dp_node2 is
  signal v18_t : signed(8 downto 0);
  signal v19_t : signed(8 downto 0);
begin
  v18_t <= to_signed(0, 9) - v9_t;
  v19_t <= v18_t;
  v19_t_out <= v19_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_mux_bb3 is
  port (
    v19_t : in signed(8 downto 0);
    v37_pipe : in signed(8 downto 0);
    v41_pipe : in unsigned(0 downto 0);
    v20_d0_2_out : out signed(8 downto 0)
  );
end entity sad4_dp_mux_bb3;

architecture rtl of sad4_dp_mux_bb3 is
  signal v20_d0_2 : signed(8 downto 0);
begin
  v20_d0_2 <= v19_t when v41_pipe = 1 else v37_pipe;
  v20_d0_2_out <= v20_d0_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node4 is
  port (
    v38_pipe : in signed(8 downto 0);
    v21_t_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_node4;

architecture rtl of sad4_dp_node4 is
  signal v21_t : unsigned(0 downto 0);
begin
  v21_t <= "1" when resize(v38_pipe, 10) < to_signed(0, 10) else "0";
  v21_t_out <= v21_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node5 is
  port (
    v38_pipe : in signed(8 downto 0);
    v23_t_out : out signed(8 downto 0)
  );
end entity sad4_dp_node5;

architecture rtl of sad4_dp_node5 is
  signal v22_t : signed(8 downto 0);
  signal v23_t : signed(8 downto 0);
begin
  v22_t <= to_signed(0, 9) - v38_pipe;
  v23_t <= v22_t;
  v23_t_out <= v23_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_mux_bb6 is
  port (
    v23_t : in signed(8 downto 0);
    v38_pipe : in signed(8 downto 0);
    v43_pipe : in unsigned(0 downto 0);
    v24_d1_2_out : out signed(8 downto 0)
  );
end entity sad4_dp_mux_bb6;

architecture rtl of sad4_dp_mux_bb6 is
  signal v24_d1_2 : signed(8 downto 0);
begin
  v24_d1_2 <= v23_t when v43_pipe = 1 else v38_pipe;
  v24_d1_2_out <= v24_d1_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node7 is
  port (
    v39_pipe : in signed(8 downto 0);
    v25_t_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_node7;

architecture rtl of sad4_dp_node7 is
  signal v25_t : unsigned(0 downto 0);
begin
  v25_t <= "1" when resize(v39_pipe, 10) < to_signed(0, 10) else "0";
  v25_t_out <= v25_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node8 is
  port (
    v39_pipe : in signed(8 downto 0);
    v27_t_out : out signed(8 downto 0)
  );
end entity sad4_dp_node8;

architecture rtl of sad4_dp_node8 is
  signal v26_t : signed(8 downto 0);
  signal v27_t : signed(8 downto 0);
begin
  v26_t <= to_signed(0, 9) - v39_pipe;
  v27_t <= v26_t;
  v27_t_out <= v27_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_mux_bb9 is
  port (
    v27_t : in signed(8 downto 0);
    v39_pipe : in signed(8 downto 0);
    v45_pipe : in unsigned(0 downto 0);
    v28_d2_2_out : out signed(8 downto 0)
  );
end entity sad4_dp_mux_bb9;

architecture rtl of sad4_dp_mux_bb9 is
  signal v28_d2_2 : signed(8 downto 0);
begin
  v28_d2_2 <= v27_t when v45_pipe = 1 else v39_pipe;
  v28_d2_2_out <= v28_d2_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node10 is
  port (
    v40_pipe : in signed(8 downto 0);
    v29_t_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_node10;

architecture rtl of sad4_dp_node10 is
  signal v29_t : unsigned(0 downto 0);
begin
  v29_t <= "1" when resize(v40_pipe, 10) < to_signed(0, 10) else "0";
  v29_t_out <= v29_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node11 is
  port (
    v40_pipe : in signed(8 downto 0);
    v31_t_out : out signed(8 downto 0)
  );
end entity sad4_dp_node11;

architecture rtl of sad4_dp_node11 is
  signal v30_t : signed(8 downto 0);
  signal v31_t : signed(8 downto 0);
begin
  v30_t <= to_signed(0, 9) - v40_pipe;
  v31_t <= v30_t;
  v31_t_out <= v31_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_mux_bb12 is
  port (
    v31_t : in signed(8 downto 0);
    v40_pipe : in signed(8 downto 0);
    v47_pipe : in unsigned(0 downto 0);
    v32_d3_2_out : out signed(8 downto 0)
  );
end entity sad4_dp_mux_bb12;

architecture rtl of sad4_dp_mux_bb12 is
  signal v32_d3_2 : signed(8 downto 0);
begin
  v32_d3_2 <= v31_t when v47_pipe = 1 else v40_pipe;
  v32_d3_2_out <= v32_d3_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node13 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    v32_d3_2 : in signed(8 downto 0);
    v42_d0_2_pipe : in signed(8 downto 0);
    v44_d1_2_pipe : in signed(8 downto 0);
    v46_d2_2_pipe : in signed(8 downto 0);
    v36_t_out : out unsigned(11 downto 0)
  );
end entity sad4_dp_node13;

architecture rtl of sad4_dp_node13 is
  signal v33_t : signed(9 downto 0);
  signal v34_t : signed(10 downto 0);
  signal v35_t : signed(10 downto 0);
  signal v36_t : unsigned(11 downto 0);
  signal v34_t_s2 : signed(10 downto 0);
begin
  v33_t <= resize(v42_d0_2_pipe, 10) + resize(v44_d1_2_pipe, 10);
  v34_t <= resize(v33_t, 11) + resize(v46_d2_2_pipe, 11);
  v35_t <= v34_t_s2 + resize(v32_d3_2, 11);
  v36_t <= unsigned(resize(v35_t, 12));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v34_t_s2 <= v34_t;
      end if;
    end if;
  end process;
  v36_t_out <= v36_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_pipe_bb3 is
  port (
    v9_t : in signed(8 downto 0);
    v11_t : in signed(8 downto 0);
    v13_t : in signed(8 downto 0);
    v15_t : in signed(8 downto 0);
    v17_t : in unsigned(0 downto 0);
    v37_pipe_out : out signed(8 downto 0);
    v38_pipe_out : out signed(8 downto 0);
    v39_pipe_out : out signed(8 downto 0);
    v40_pipe_out : out signed(8 downto 0);
    v41_pipe_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_pipe_bb3;

architecture rtl of sad4_dp_pipe_bb3 is
  signal v37_pipe : signed(8 downto 0);
  signal v38_pipe : signed(8 downto 0);
  signal v39_pipe : signed(8 downto 0);
  signal v40_pipe : signed(8 downto 0);
  signal v41_pipe : unsigned(0 downto 0);
begin
  v37_pipe <= v9_t;
  v38_pipe <= v11_t;
  v39_pipe <= v13_t;
  v40_pipe <= v15_t;
  v41_pipe <= v17_t;
  v37_pipe_out <= v37_pipe;
  v38_pipe_out <= v38_pipe;
  v39_pipe_out <= v39_pipe;
  v40_pipe_out <= v40_pipe;
  v41_pipe_out <= v41_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_pipe_bb6 is
  port (
    v20_d0_2 : in signed(8 downto 0);
    v21_t : in unsigned(0 downto 0);
    v42_d0_2_pipe_out : out signed(8 downto 0);
    v43_pipe_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_pipe_bb6;

architecture rtl of sad4_dp_pipe_bb6 is
  signal v42_d0_2_pipe : signed(8 downto 0);
  signal v43_pipe : unsigned(0 downto 0);
begin
  v42_d0_2_pipe <= v20_d0_2;
  v43_pipe <= v21_t;
  v42_d0_2_pipe_out <= v42_d0_2_pipe;
  v43_pipe_out <= v43_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_pipe_bb9 is
  port (
    v24_d1_2 : in signed(8 downto 0);
    v25_t : in unsigned(0 downto 0);
    v44_d1_2_pipe_out : out signed(8 downto 0);
    v45_pipe_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_pipe_bb9;

architecture rtl of sad4_dp_pipe_bb9 is
  signal v44_d1_2_pipe : signed(8 downto 0);
  signal v45_pipe : unsigned(0 downto 0);
begin
  v44_d1_2_pipe <= v24_d1_2;
  v45_pipe <= v25_t;
  v44_d1_2_pipe_out <= v44_d1_2_pipe;
  v45_pipe_out <= v45_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_pipe_bb12 is
  port (
    v28_d2_2 : in signed(8 downto 0);
    v29_t : in unsigned(0 downto 0);
    v46_d2_2_pipe_out : out signed(8 downto 0);
    v47_pipe_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_pipe_bb12;

architecture rtl of sad4_dp_pipe_bb12 is
  signal v46_d2_2_pipe : signed(8 downto 0);
  signal v47_pipe : unsigned(0 downto 0);
begin
  v46_d2_2_pipe <= v28_d2_2;
  v47_pipe <= v29_t;
  v46_d2_2_pipe_out <= v46_d2_2_pipe;
  v47_pipe_out <= v47_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in unsigned(7 downto 0);
    A1 : in unsigned(7 downto 0);
    A2 : in unsigned(7 downto 0);
    A3 : in unsigned(7 downto 0);
    B0 : in unsigned(7 downto 0);
    B1 : in unsigned(7 downto 0);
    B2 : in unsigned(7 downto 0);
    B3 : in unsigned(7 downto 0);
    S_o0 : out unsigned(11 downto 0)
  );
end entity sad4_dp;

architecture rtl of sad4_dp is
  signal v9_t : signed(8 downto 0);
  signal v11_t : signed(8 downto 0);
  signal v13_t : signed(8 downto 0);
  signal v15_t : signed(8 downto 0);
  signal v17_t : unsigned(0 downto 0);
  signal v19_t : signed(8 downto 0);
  signal v20_d0_2 : signed(8 downto 0);
  signal v21_t : unsigned(0 downto 0);
  signal v23_t : signed(8 downto 0);
  signal v24_d1_2 : signed(8 downto 0);
  signal v25_t : unsigned(0 downto 0);
  signal v27_t : signed(8 downto 0);
  signal v28_d2_2 : signed(8 downto 0);
  signal v29_t : unsigned(0 downto 0);
  signal v31_t : signed(8 downto 0);
  signal v32_d3_2 : signed(8 downto 0);
  signal v36_t : unsigned(11 downto 0);
  signal v37_pipe : signed(8 downto 0);
  signal v38_pipe : signed(8 downto 0);
  signal v39_pipe : signed(8 downto 0);
  signal v40_pipe : signed(8 downto 0);
  signal v41_pipe : unsigned(0 downto 0);
  signal v42_d0_2_pipe : signed(8 downto 0);
  signal v43_pipe : unsigned(0 downto 0);
  signal v44_d1_2_pipe : signed(8 downto 0);
  signal v45_pipe : unsigned(0 downto 0);
  signal v46_d2_2_pipe : signed(8 downto 0);
  signal v47_pipe : unsigned(0 downto 0);
  signal v42_d0_2_pipe_p1 : signed(8 downto 0);
  signal v44_d1_2_pipe_p1 : signed(8 downto 0);
  signal v46_d2_2_pipe_p1 : signed(8 downto 0);
  signal v32_d3_2_p1 : signed(8 downto 0);
  signal v32_d3_2_p2 : signed(8 downto 0);
begin
  u_node1 : entity work.sad4_dp_node1
    port map (v0_A0 => A0, v1_A1 => A1, v2_A2 => A2, v3_A3 => A3, v4_B0 => B0, v5_B1 => B1, v6_B2 => B2, v7_B3 => B3, v9_t_out => v9_t, v11_t_out => v11_t, v13_t_out => v13_t, v15_t_out => v15_t, v16_t_out => v16_t, v17_t_out => v17_t);
  u_node2 : entity work.sad4_dp_node2
    port map (v9_t => v9_t, v19_t_out => v19_t);
  u_mux_bb3 : entity work.sad4_dp_mux_bb3
    port map (v19_t => v19_t, v37_pipe => v37_pipe, v41_pipe => v41_pipe, v20_d0_2_out => v20_d0_2);
  u_node4 : entity work.sad4_dp_node4
    port map (v38_pipe => v38_pipe, v21_t_out => v21_t);
  u_node5 : entity work.sad4_dp_node5
    port map (v38_pipe => v38_pipe, v23_t_out => v23_t);
  u_mux_bb6 : entity work.sad4_dp_mux_bb6
    port map (v23_t => v23_t, v38_pipe => v38_pipe, v43_pipe => v43_pipe, v24_d1_2_out => v24_d1_2);
  u_node7 : entity work.sad4_dp_node7
    port map (v39_pipe => v39_pipe, v25_t_out => v25_t);
  u_node8 : entity work.sad4_dp_node8
    port map (v39_pipe => v39_pipe, v27_t_out => v27_t);
  u_mux_bb9 : entity work.sad4_dp_mux_bb9
    port map (v27_t => v27_t, v39_pipe => v39_pipe, v45_pipe => v45_pipe, v28_d2_2_out => v28_d2_2);
  u_node10 : entity work.sad4_dp_node10
    port map (v40_pipe => v40_pipe, v29_t_out => v29_t);
  u_node11 : entity work.sad4_dp_node11
    port map (v40_pipe => v40_pipe, v31_t_out => v31_t);
  u_mux_bb12 : entity work.sad4_dp_mux_bb12
    port map (v31_t => v31_t, v40_pipe => v40_pipe, v47_pipe => v47_pipe, v32_d3_2_out => v32_d3_2);
  u_node13 : entity work.sad4_dp_node13
    port map (clk => clk, ce => ce, v32_d3_2 => v32_d3_2_p2, v42_d0_2_pipe => v42_d0_2_pipe_p1, v44_d1_2_pipe => v44_d1_2_pipe_p1, v46_d2_2_pipe => v46_d2_2_pipe_p1, v36_t_out => v36_t);
  u_pipe_bb3 : entity work.sad4_dp_pipe_bb3
    port map (v9_t => v9_t, v11_t => v11_t, v13_t => v13_t, v15_t => v15_t, v17_t => v17_t, v37_pipe_out => v37_pipe, v38_pipe_out => v38_pipe, v39_pipe_out => v39_pipe, v40_pipe_out => v40_pipe, v41_pipe_out => v41_pipe);
  u_pipe_bb6 : entity work.sad4_dp_pipe_bb6
    port map (v20_d0_2 => v20_d0_2, v21_t => v21_t, v42_d0_2_pipe_out => v42_d0_2_pipe, v43_pipe_out => v43_pipe);
  u_pipe_bb9 : entity work.sad4_dp_pipe_bb9
    port map (v24_d1_2 => v24_d1_2, v25_t => v25_t, v44_d1_2_pipe_out => v44_d1_2_pipe, v45_pipe_out => v45_pipe);
  u_pipe_bb12 : entity work.sad4_dp_pipe_bb12
    port map (v28_d2_2 => v28_d2_2, v29_t => v29_t, v46_d2_2_pipe_out => v46_d2_2_pipe, v47_pipe_out => v47_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v42_d0_2_pipe_p1 <= v42_d0_2_pipe;
        v44_d1_2_pipe_p1 <= v44_d1_2_pipe;
        v46_d2_2_pipe_p1 <= v46_d2_2_pipe;
        v32_d3_2_p1 <= v32_d3_2;
        v32_d3_2_p2 <= v32_d3_2_p1;
      end if;
    end if;
  end process;
  S_o0 <= resize(v36_t, 12);
end architecture rtl;
